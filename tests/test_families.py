"""Family constructors: canonical members, random members, FamilySpec."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bclayout import (
    DimensionCapError,
    FamilySpec,
    Graph,
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
from bclayout import cli, families
from bclayout.formats import GraphDocument, dump_graph_json, load_graph_json
from bclayout.rng import _GAMMA, _MIX1, _MIX2, SplitMix64, bounded_draws
from reference import build, recursive_edges, scalar_tree


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
        assert bc.graph.edge_array.tolist() == [[0, 1]]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_family_member_validates(n):
    for bc in all_members(n):
        assert validate(bc).ok


def test_out_of_range_dimension():
    for ctor in (hypercube, locally_twisted, lambda n: mobius(n, 0)):
        with pytest.raises(ValueError):
            ctor(0)
    with pytest.raises(DimensionCapError):
        build_family(FamilySpec("hypercube", 7), cap=6)
    with pytest.raises(DimensionCapError):
        random_bc(30, 1)


def test_cap_above_ceiling_is_rejected_before_any_tree_is_built(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(families, "ConstructionTree", no_nodes)
    monkeypatch.setattr(families, "_random_levels", no_nodes)
    with pytest.raises(DimensionCapError):
        build_family(FamilySpec("hypercube", 7), cap=6)
    with pytest.raises(ValueError, match="cap must be"):
        build_family(FamilySpec("hypercube", 3), cap=27)
    with pytest.raises(ValueError, match="cap must be"):
        build_family(FamilySpec("random", 3, 1), cap=27)


def test_random_bc_checks_dimension_cap_and_seed_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(families, "bounded_draws", no_draws)
    monkeypatch.setattr(families, "ConstructionTree", no_draws)
    with pytest.raises(DimensionCapError):
        random_bc(30, 1)
    with pytest.raises(ValueError, match="cap must be"):
        build_family(FamilySpec("random", 3, 1), cap=27)
    for n in (1, 3):
        for seed in (-1, 1 << 64, True, 3.0):
            with pytest.raises(ValueError, match="seed"):
                random_bc(n, seed)


def test_locally_twisted_small_cases():
    assert locally_twisted(2).graph.edge_array.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    # dimension 3 join rule: flip bit 1 of x when bit 0 of x is set
    assert locally_twisted(3).tree.phi == (0, 3, 2, 1)
    assert [1, 7] in locally_twisted(3).graph.edge_array.tolist()
    g4 = locally_twisted(4).graph
    assert (g4.degrees() == 4).all()


def test_mobius_small_cases():
    assert mobius(2, 0).graph.edge_array.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert mobius(2, 1).graph.edge_array.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
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
        assert random_bc(1, s).graph.edge_array.tolist() == [[0, 1]]


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
    # a spec given as CLI flags comes back from the graph JSON as its graph
    for spec in (FamilySpec("mobius-1", 4), FamilySpec("random", 2, seed=9)):
        out = io.StringIO()
        argv = ["build", "--family", spec.kind, "-n", str(spec.dimension)]
        argv += [] if spec.seed is None else ["--seed", str(spec.seed)]
        assert cli.run(argv, out, io.StringIO()) == 0
        doc = load_graph_json(io.StringIO(out.getvalue()))
        bc = build_family(spec)
        assert (doc.dimension, doc.graph, doc.tree) == (bc.dimension, bc.graph, bc.tree)


def test_build_family_dispatch():
    assert build_family(FamilySpec("hypercube", 3)).graph == hypercube(3).graph
    assert build_family(FamilySpec("random", 3, seed=4)).graph == random_bc(3, 4).graph


def test_families_build_in_canonical_order_without_sorting(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("numpy.lexsort called on canonical rows")

    monkeypatch.setattr(np, "lexsort", no_sort)
    for kind in families.KINDS:
        bc = build_family(FamilySpec(kind, 12, 7 if kind == "random" else None))
        assert bc.graph.edge_count == 12 << 11
    text = io.StringIO()
    dump_graph_json(GraphDocument.from_bc(bc), text)
    assert load_graph_json(io.StringIO(text.getvalue())).graph == bc.graph


MASK = (1 << 64) - 1


@given(st.integers(1, 10), st.integers(0, MASK))
@example(1, 0)
@example(10, 0)
@example(10, MASK)
@settings(max_examples=60)
def test_random_bc_matches_the_scalar_stream(n, seed):
    nested = scalar_tree(n, seed)
    bc = random_bc(n, seed)
    assert bc.tree == build(nested)
    assert bc.graph == Graph(1 << n, recursive_edges(nested))


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z):
    """The state whose SplitMix64 output is z: the finalizer run backwards."""
    z = _unxorshift(z, 31) * pow(_MIX2, -1, 1 << 64) & MASK
    z = _unxorshift(z, 27) * pow(_MIX1, -1, 1 << 64) & MASK
    return _unxorshift(z, 30)


def _rejecting_seed(k):
    """The seed whose draw k is 2**64 - 1, which every bound that is not a
    power of two rejects."""
    return (_unmix(MASK) - k * _GAMMA) & MASK


def test_rejected_draw_falls_back_to_the_scalar_stream(monkeypatch):
    # random_bc(3, .) draws with bounds 2, 2, 4, 3, 2; draw 4 has bound 3, and
    # this seed makes it 2**64 - 1, which 3 does not divide into evenly
    seed = _rejecting_seed(4)
    assert seed == 6249903136257981804
    stream = SplitMix64(seed)
    draws = [stream.next_u64() for _ in range(4)]
    # randbelow(3) accepts only draws below 3 * (2**64 // 3) = 2**64 - 1
    assert draws[3] == MASK >= ((1 << 64) // 3) * 3
    assert bounded_draws(seed, np.array([4]), np.array([3]))[1].tolist() == [True]
    calls = []
    bulk = families.bounded_draws

    def counted(seed, counters, bounds):
        calls.append(np.asarray(counters).copy())
        return bulk(seed, counters, bounds)

    monkeypatch.setattr(families, "bounded_draws", counted)
    bc = random_bc(3, seed)
    # a first pass over levels 2 and 3, then a second that redraws draw 4
    # from counter 5 and delays draw 5 to counter 6
    first, second = [[[1], [2]], [[3, 4, 5]]], [[[1], [2]], [[3, 5, 6]]]
    assert [c.tolist() for c in calls] == first + second
    assert bc.tree == build(scalar_tree(3, seed))
    assert bc.tree.phi == (2, 0, 3, 1)
    assert validate(bc).ok


@given(st.integers(3, 8), st.data())
@settings(max_examples=40)
def test_a_rejection_anywhere_delays_every_later_draw(n, data):
    # every stream position whose bound is not a power of two, at any level
    sizes = []

    def walk(d):
        if d > 1:
            walk(d - 1)
            walk(d - 1)
            sizes.extend(range(1 << (d - 1), 1, -1))

    walk(n)
    ks = [k for k, b in enumerate(sizes, start=1) if b & (b - 1)]
    seed = _rejecting_seed(data.draw(st.sampled_from(ks)))
    nested = scalar_tree(n, seed)
    bc = random_bc(n, seed)
    assert bc.tree == build(nested)
    assert bc.graph == Graph(1 << n, recursive_edges(nested))


@pytest.mark.parametrize("kind", families.KINDS)
def test_a_tree_is_a_few_arrays_per_level(kind):
    # a dimension-12 tree has 2**11 - 1 nodes; it is kept as two arrays a
    # level, so the blocks that the library's own lines allocate and the
    # tree keeps alive do not grow with the node count (a tree of Node
    # objects and phi tuples held 2846 to 10581 of them)
    spec = FamilySpec(kind, 12, 5 if kind == "random" else None)
    library = [tracemalloc.Filter(True, families.__file__.replace("families.py", "*"))]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(library)
        tree = families.build_tree(spec)
        bc = random_bc(12, 5) if kind == "random" else None
        after = tracemalloc.take_snapshot().filter_traces(library)
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
    assert blocks < (1 << 11) // 8
    assert len(tree.levels) == 11
    for d, (phis, which) in enumerate(tree.levels, start=2):
        rows = {"random": 1 << (12 - d), "mobius-0": 2, "mobius-1": 2}.get(kind, 1)
        assert phis.shape == (1 if d == 12 else rows, 1 << (d - 1))
        assert which.shape == (1 << (12 - d),)
        assert not phis.flags.writeable and not which.flags.writeable
    if bc is not None:
        assert bc.tree == tree
