"""Family constructors: canonical members, random members, FamilySpec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    DimensionCapError,
    FamilySpec,
    build_family,
    brute_force_tables,
    edge_boundary,
    hypercube,
    locally_twisted,
    max_induced_edges,
    mobius,
    random_bc,
    validate,
)
from bclayout import families


def all_members(n, seeds=(1, 2)):
    yield hypercube(n)
    yield locally_twisted(n)
    yield mobius(n, 0)
    yield mobius(n, 1)
    for s in seeds:
        yield random_bc(n, s)


def test_dimension_one_is_single_edge_for_every_family():
    for bc in all_members(1):
        assert bc.graph.vertex_count == 2
        assert bc.graph.edge_set() == {(0, 1)}


@pytest.mark.parametrize("n", range(1, 9))
def test_every_family_member_validates(n):
    for bc in all_members(n):
        assert validate(bc).ok


def test_out_of_range_dimension():
    for ctor in (hypercube, locally_twisted, lambda n: mobius(n, 0)):
        with pytest.raises(ValueError):
            ctor(0)
    with pytest.raises(DimensionCapError):
        hypercube(7, cap=6)
    with pytest.raises(DimensionCapError):
        random_bc(30, 1)


def test_cap_above_ceiling_is_rejected_before_any_tree_is_built(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a tree node was built")

    monkeypatch.setattr(families, "Node", no_nodes)
    with pytest.raises(ValueError, match="cap must be"):
        hypercube(3, cap=27)
    with pytest.raises(ValueError, match="cap must be"):
        random_bc(3, 1, cap=27)


def test_locally_twisted_small_cases():
    assert locally_twisted(2).graph.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}
    # dimension 3 join rule: flip bit 1 of x when bit 0 of x is set
    assert locally_twisted(3).tree.phi == (0, 3, 2, 1)
    assert (1, 7) in locally_twisted(3).graph.edge_set()
    g4 = locally_twisted(4).graph
    assert (g4.degrees() == 4).all()


def test_mobius_small_cases():
    assert mobius(2, 0).graph.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert mobius(2, 1).graph.edge_set() == {(0, 1), (2, 3), (0, 3), (1, 2)}
    for variant in (0, 1):
        g = mobius(4, variant).graph
        assert g.edge_count == 32
        assert (g.degrees() == 4).all()
    with pytest.raises(ValueError):
        mobius(3, 2)


def test_mobius_variants_differ_from_dimension_three():
    assert mobius(3, 0).graph != mobius(3, 1).graph


def test_random_bc_is_reproducible():
    a = random_bc(5, 99)
    b = random_bc(5, 99)
    assert a.graph == b.graph
    assert a.tree == b.tree


def test_random_bc_seed_changes_graph():
    assert random_bc(4, 1).graph != random_bc(4, 2).graph


def test_random_bc_frozen_fixture():
    # regression pin: the pinned generator must keep producing these trees
    assert random_bc(2, 0).tree.phi == (0, 1)
    assert random_bc(3, 42).tree.phi == (1, 3, 0, 2)


def test_random_bc_dimension_one_ignores_seed():
    for s in (0, 7, (1 << 64) - 1):
        assert random_bc(1, s).graph.edge_set() == {(0, 1)}


@given(st.integers(2, 6), st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_random_bc_validates_and_matches_across_halves(n, seed):
    bc = random_bc(n, seed)
    assert validate(bc).ok
    half = 1 << (n - 1)
    cross = [(u, v) for u, v in bc.graph.iter_edges() if u < half <= v]
    assert sorted(u for u, _ in cross) == list(range(half))
    assert sorted(v for _, v in cross) == list(range(half, 2 * half))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_profile_is_family_independent(n):
    # max induced edges and min boundary per size agree across all members
    for bc in all_members(n, seeds=(1, 2, 3)):
        induced, boundary = brute_force_tables(bc.graph)
        for m in range(1, (1 << n) + 1):
            assert induced[m] == max_induced_edges(m)
            assert boundary[m] == edge_boundary(n, m)


# ---------------------------------------------------------- FamilySpec


def test_family_spec_validation():
    FamilySpec("hypercube", 3)
    FamilySpec("random", 3, seed=5)
    with pytest.raises(ValueError):
        FamilySpec("random", 3)  # seed required
    with pytest.raises(ValueError):
        FamilySpec("hypercube", 3, seed=5)  # seed forbidden
    with pytest.raises(ValueError):
        FamilySpec("banana", 3)


def test_family_spec_json_round_trip():
    for spec in (FamilySpec("mobius-1", 4), FamilySpec("random", 2, seed=9)):
        assert FamilySpec.from_json_dict(spec.to_json_dict()) == spec


def test_build_family_dispatch():
    assert build_family(FamilySpec("hypercube", 3)).graph == hypercube(3).graph
    assert build_family(FamilySpec("random", 3, seed=4)).graph == random_bc(3, 4).graph
