"""Arrangement evaluation, bounds, cross-matching cost, and certification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    BcGraph,
    ConstructionTree,
    EnumerationLimitError,
    FamilySpec,
    Graph,
    KINDS,
    LayoutReport,
    LinearArrangement,
    SplitMix64,
    arrangement_cost,
    bc_arrangement,
    build_family,
    certify,
    certify_dimension,
    cut_profile,
    edge_boundary,
    evaluate_arrangement,
    hypercube,
    locally_twisted,
    lower_bound_closed,
    lower_bound_generic,
    mobius,
    random_arrangement,
    random_bc,
)
from bclayout import layout
from bclayout.verify import cross_matching_cost

C4 = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
K2 = Graph(2, [(0, 1)])


def small_graphs(draw):
    n = draw(st.integers(2, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(possible)))
    return Graph(n, edges)


graphs = st.composite(small_graphs)()
seeds = st.integers(0, 2**64 - 1)


# ---------------------------------------------------- LinearArrangement


def test_arrangement_validation():
    LinearArrangement([2, 1, 3])
    with pytest.raises(ValueError):
        LinearArrangement([0, 1, 2])  # positions are 1-based
    with pytest.raises(ValueError):
        LinearArrangement([1, 1, 3])
    with pytest.raises(ValueError):
        LinearArrangement([])


def test_arrangement_rejects_non_integer_positions():
    for bad in (
        [1.7, 2.2],  # would truncate to [1, 2]
        [2, True],  # bool mixed with ints
        np.array([2.0, 1.0]),
        np.array([True]),
        [None, 1],  # object dtype
    ):
        with pytest.raises(ValueError, match="integers"):
            LinearArrangement(bad)


def test_arrangement_helpers():
    f = LinearArrangement.identity(4)
    assert f.to_list() == [1, 2, 3, 4]
    assert f.positions[2] == 3
    assert f.reverse().to_list() == [4, 3, 2, 1]
    assert f.reverse().reverse() == f
    assert len(f) == 4


# ---------------------------------------------------------------- cost


def test_cost_examples():
    assert arrangement_cost(K2, LinearArrangement([1, 2])) == 1
    # natural order on the identity-composed four-cycle: spans 1, 1, 2, 2
    assert arrangement_cost(C4, LinearArrangement.identity(4)) == 6


def test_cost_size_mismatch():
    with pytest.raises(ValueError):
        arrangement_cost(C4, LinearArrangement([1, 2]))


def test_cut_profile_examples():
    assert cut_profile(C4, LinearArrangement.identity(4)).tolist() == [2, 2, 2]
    q3 = hypercube(3)
    profile = cut_profile(q3.graph, bc_arrangement(q3.tree))
    assert profile.tolist() == [3, 4, 5, 4, 5, 4, 3]
    assert profile.sum() == 28


def test_cut_profile_no_edges():
    g = Graph(3)
    assert cut_profile(g, LinearArrangement.identity(3)).tolist() == [0, 0]


@given(graphs, seeds)
@settings(max_examples=60, deadline=None)
def test_cut_totals_equal_cost(graph, seed):
    f = random_arrangement(graph.vertex_count, SplitMix64(seed))
    assert cut_profile(graph, f).sum() == arrangement_cost(graph, f)


@given(graphs, seeds)
@settings(max_examples=60, deadline=None)
def test_reversal_preserves_cost(graph, seed):
    f = random_arrangement(graph.vertex_count, SplitMix64(seed))
    assert arrangement_cost(graph, f.reverse()) == arrangement_cost(graph, f)


# ------------------------------------------------------ bc_arrangement


def test_bc_arrangement_of_leaf():
    assert bc_arrangement(ConstructionTree(1)).to_list() == [1, 2]


@pytest.mark.parametrize("n", range(1, 9))
def test_bc_arrangement_is_identity_for_every_tree(n):
    for bc in (
        hypercube(n),
        locally_twisted(n),
        mobius(n, 0),
        mobius(n, 1),
        random_bc(n, 5),
    ):
        assert bc_arrangement(bc.tree) == LinearArrangement.identity(1 << n)


def test_bc_arrangement_cost_dim2():
    bc = hypercube(2)
    assert arrangement_cost(bc.graph, bc_arrangement(bc.tree)) == 6


# --------------------------------------------------------- lower bounds


def test_lower_bound_closed_values():
    assert lower_bound_closed(1) == 1
    assert lower_bound_closed(2) == 6
    assert lower_bound_closed(3) == 28


def test_lower_bound_generic_values():
    assert lower_bound_generic(K2) == 1
    assert lower_bound_generic(C4) == 6
    assert lower_bound_generic(hypercube(3).graph) == lower_bound_closed(3) == 28


@given(graphs, seeds)
@settings(max_examples=80, deadline=None)
def test_any_arrangement_respects_generic_bound(graph, seed):
    f = random_arrangement(graph.vertex_count, SplitMix64(seed))
    assert arrangement_cost(graph, f) >= lower_bound_generic(graph)


# ------------------------------------------------- cross matching cost


def test_cross_matching_dim2():
    assert cross_matching_cost(2, (0, 1)) == 4  # |3-1| + |4-2|
    assert cross_matching_cost(2, (1, 0)) == 4  # |4-1| + |3-2|


def test_cross_matching_dim3_samples():
    rng = SplitMix64(3)
    for _ in range(20):
        assert cross_matching_cost(3, rng.permutation(4)) == 16


@given(st.integers(1, 8), seeds)
@settings(max_examples=80)
def test_cross_matching_is_permutation_independent(n, seed):
    phi = SplitMix64(seed).permutation(1 << (n - 1))
    assert cross_matching_cost(n, phi) == 1 << (2 * n - 2)


def test_cross_matching_rejects_non_permutation():
    with pytest.raises(ValueError):
        cross_matching_cost(2, (0, 0))


# -------------------------------------------------------------- certify


def test_certify_hypercube():
    report = certify(hypercube(3))
    assert report.cost == 28
    assert report.lower_bound == 28
    assert report.closed_form == 28
    assert report.optimal
    assert report.cut_profile.tolist() == [3, 4, 5, 4, 5, 4, 3]


def test_certify_examples():
    assert certify(random_bc(5, 42)).cost == 496
    assert certify(random_bc(5, 42)).optimal
    assert certify(mobius(4, 1)).cost == 120
    assert certify(mobius(4, 1)).optimal


def test_certify_spot_dimensions():
    assert certify(hypercube(10)).cost == 523776
    assert certify(locally_twisted(12)).cost == (1 << 11) * ((1 << 12) - 1)


SPECS = [
    FamilySpec(kind, n, seed)
    for n in range(1, 17)
    for kind in KINDS
    for seed in ((42, (1 << 64) - 1) if kind == "random" else (None,))
]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_certify_dimension_equals_certify(spec):
    # the proven profile and the measured edge array give one report
    assert certify_dimension(spec.dimension) == certify(build_family(spec))


@pytest.mark.parametrize("spec", [s for s in SPECS if s.dimension <= 12], ids=str)
def test_certify_dimension_profile_is_the_boundary_table(spec):
    # the proven profile and the member's measured one are the table
    n = spec.dimension
    table = [edge_boundary(n, m) for m in range(1, 1 << n)]
    assert certify_dimension(n).cut_profile.tolist() == table
    bc = build_family(spec)
    assert cut_profile(bc.graph, bc_arrangement(bc.tree)).tolist() == table


def test_certify_dimension_allocates_only_the_profile():
    """tracemalloc peak of certify_dimension at n = 20: the 2**20 + 1 int64
    θ array and a few small objects. A ramp array per level adds 4 MB."""
    tracemalloc.start()
    try:
        report = certify_dimension(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    theta = ((1 << 20) + 1) * 8
    assert theta <= peak < theta + (64 << 10)
    assert report.cut_profile[(1 << 19) - 1] == 1 << 19


def test_certify_checks_the_vertex_count():
    bc = hypercube(3)
    with pytest.raises(ValueError, match="arrangement covers 8 vertices"):
        certify(BcGraph(3, Graph(16, bc.graph.edge_array), bc.tree))


Q3 = hypercube(3)
PROFILES = {
    "certify": lambda: certify(Q3).cut_profile,
    "certify_dimension": lambda: certify_dimension(3).cut_profile,
    "evaluate_arrangement": lambda: evaluate_arrangement(
        Q3.graph, bc_arrangement(Q3.tree)
    ).cut_profile,
    "cut_profile": lambda: cut_profile(Q3.graph, bc_arrangement(Q3.tree)),
}


@pytest.mark.parametrize("route", PROFILES)
def test_profile_is_a_read_only_int64_array(route):
    profile = PROFILES[route]()
    assert isinstance(profile, np.ndarray)
    assert profile.dtype == np.int64
    assert profile.tolist() == [3, 4, 5, 4, 5, 4, 3]
    with pytest.raises(ValueError, match="read-only"):
        profile[0] = 0


def test_report_equality_compares_every_field_and_cut():
    report = certify(Q3)
    assert report == LayoutReport(28, 28, 28, np.array([3, 4, 5, 4, 5, 4, 3]), True)
    cuts = report.cut_profile.copy()
    cuts[3] += 1
    assert report != LayoutReport(28, 28, 28, cuts, True)
    assert report != LayoutReport(28, 28, None, report.cut_profile, True)
    assert report != LayoutReport(28, 28, 28, report.cut_profile[:-1], True)
    assert report != (28, 28, 28, report.cut_profile, True)


@pytest.mark.parametrize("n", (15, 16))
def test_every_prefix_of_the_tree_arrangement_is_optimal(n):
    # the cut profile meets the per-size boundary minimum entrywise
    for bc in (hypercube(n), mobius(n, 1)):
        counts = cut_profile(bc.graph, bc_arrangement(bc.tree)).tolist()
        assert all(
            counts[m - 1] == edge_boundary(n, m) for m in range(1, 1 << n)
        )


# -------------------------------------------------- evaluate_arrangement


def test_evaluate_generic_optimal():
    report = evaluate_arrangement(C4, LinearArrangement.identity(4))
    assert report.cost == 6
    assert report.lower_bound == 6
    assert report.closed_form is None
    assert report.optimal


def test_evaluate_generic_suboptimal():
    bad = LinearArrangement([1, 3, 4, 2])  # costs 8 on the four-cycle
    report = evaluate_arrangement(C4, bad)
    assert report.cost > report.lower_bound
    assert not report.optimal


def test_evaluate_refuses_a_large_graph_before_any_work(monkeypatch):
    # 32 vertices without a witness: the generic bound's limit comes first,
    # after the size check, and no cost or cut profile is computed
    def no_work(*args):
        raise AssertionError("accumulated before the limit check")

    monkeypatch.setattr(layout, "_accumulate", no_work)
    graph = hypercube(5).graph
    with pytest.raises(EnumerationLimitError, match="32 vertices exceeds the 24-vertex"):
        evaluate_arrangement(graph, LinearArrangement.identity(32))
    with pytest.raises(ValueError, match="arrangement covers 31 vertices, graph has 32"):
        evaluate_arrangement(graph, LinearArrangement.identity(31))


def test_evaluate_with_witness_uses_closed_bound():
    bc = hypercube(4)
    report = evaluate_arrangement(bc.graph, bc_arrangement(bc.tree), witness=bc)
    assert report.lower_bound == 120
    assert report.closed_form == 120
    assert report.optimal
