"""Closed-form isoperimetric profile against exhaustive subset oracles.

The combinations-based helpers here recount induced and boundary edges
straight from the definitions; they are deliberately dumber than the
shipped bitmask enumeration so each checks the other.
"""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    ENUMERATION_LIMIT,
    EnumerationLimitError,
    Graph,
    binary_decomposition,
    brute_force_max_induced,
    brute_force_min_boundary,
    brute_force_tables,
    edge_boundary,
    edge_boundary_expanded,
    hypercube,
    lower_bound_generic,
    max_induced_edges,
    minla_exact,
    random_bc,
    sum_edge_boundary,
)
from bclayout import isoperimetric
from reference import best_by_size


def combo_tables(graph):
    """Reference oracle: scan itertools.combinations for every subset size."""
    edges = list(graph.iter_edges())
    induced_max = [0]
    boundary_min = [0]
    for m in range(1, graph.vertex_count + 1):
        best_i = 0
        best_b = None
        for subset in itertools.combinations(range(graph.vertex_count), m):
            members = set(subset)
            i = sum(1 for u, v in edges if u in members and v in members)
            b = sum(1 for u, v in edges if (u in members) != (v in members))
            best_i = max(best_i, i)
            best_b = b if best_b is None else min(best_b, b)
        induced_max.append(best_i)
        boundary_min.append(best_b)
    return induced_max, boundary_min


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, itertools.combinations(range(n), 2))


# ------------------------------------------------- binary decomposition


@pytest.mark.parametrize(
    "m,exponents", [(1, (0,)), (5, (2, 0)), (7, (2, 1, 0)), (8, (3,)), (12, (3, 2))]
)
def test_binary_decomposition_examples(m, exponents):
    d = binary_decomposition(m)
    assert d == exponents
    assert len(d) == len(exponents)
    assert sum(1 << l for l in d) == m


def test_binary_decomposition_rejects_zero():
    with pytest.raises(ValueError):
        binary_decomposition(0)


@given(st.integers(1, 2**70))
def test_binary_decomposition_round_trip(m):
    d = binary_decomposition(m)
    assert sum(1 << l for l in d) == m
    assert list(d) == sorted(d, reverse=True)


# ------------------------------------------------------- closed forms


def test_max_induced_edges_small_values():
    # frozen table for m = 1..8; re-derived below by exhaustive enumeration
    assert [max_induced_edges(m) for m in range(1, 9)] == [0, 1, 2, 4, 5, 7, 9, 12]


@pytest.mark.parametrize("k", range(0, 21))
def test_max_induced_edges_powers_of_two(k):
    expected = k * (1 << (k - 1)) if k else 0
    assert max_induced_edges(1 << k) == expected


def test_edge_boundary_examples():
    assert edge_boundary(3, 1) == 3
    assert edge_boundary(3, 3) == 5
    assert edge_boundary(3, 7) == 3
    for n in range(1, 12):
        assert edge_boundary(n, 1 << n) == 0


def test_edge_boundary_range_checks():
    with pytest.raises(ValueError):
        edge_boundary(3, 0)
    with pytest.raises(ValueError):
        edge_boundary(3, 9)
    with pytest.raises(ValueError):
        edge_boundary(0, 1)


@given(st.integers(1, 16), st.data())
@settings(max_examples=300)
def test_boundary_forms_agree(n, data):
    m = data.draw(st.integers(1, 1 << n))
    assert edge_boundary(n, m) == edge_boundary_expanded(n, m)


@given(st.integers(1, 16), st.data())
@settings(max_examples=300)
def test_boundary_complement_symmetry(n, data):
    m = data.draw(st.integers(1, (1 << n) - 1))
    assert edge_boundary(n, m) == edge_boundary(n, (1 << n) - m)


def test_induced_is_monotone():
    values = [max_induced_edges(m) for m in range(1, 1 << 12)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_sum_edge_boundary_values():
    assert sum_edge_boundary(1) == 1
    assert sum_edge_boundary(2) == 6
    assert sum_edge_boundary(3) == 28
    assert sum_edge_boundary(4) == 120
    assert sum_edge_boundary(63) == (1 << 62) * ((1 << 63) - 1)
    with pytest.raises(ValueError):
        sum_edge_boundary(0)
    with pytest.raises(ValueError):
        sum_edge_boundary(64)


@pytest.mark.parametrize("n", range(1, 11))
def test_sum_matches_literal_python_summation(n):
    assert sum_edge_boundary(n) == sum(edge_boundary(n, m) for m in range(1, 1 << n))


# ------------------------------------------------------ subset oracles


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(5),
        complete_graph(5),
        hypercube(3).graph,
        random_bc(3, 17).graph,
        Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)]),
        Graph(6, [(0, 1), (1, 2), (3, 4)]),  # disconnected, isolated vertex
    ],
    ids=["path5", "k5", "q3", "random3", "c4", "scraps"],
)
def test_bitmask_enumeration_matches_combinations_oracle(graph):
    assert brute_force_tables(graph) == combo_tables(graph)


@st.composite
def small_graphs(draw):
    """Graphs of 1..10 vertices, from no edges to complete, isolated
    vertices included."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@given(small_graphs())
@settings(max_examples=150)
def test_subset_oracles_match_combinations_oracle(graph):
    induced_tab, boundary_tab = combo_tables(graph)
    assert brute_force_tables(graph) == (induced_tab, boundary_tab)
    for m in range(1, graph.vertex_count + 1):
        wmax = brute_force_max_induced(graph, m)
        assert len(wmax.vertices) == m
        assert wmax.induced_edge_count == induced_tab[m]
        wmin = brute_force_min_boundary(graph, m)
        assert len(wmin.vertices) == m
        assert wmin.boundary_edge_count == boundary_tab[m]


def test_complete_graph_at_the_enumeration_limit():
    # the densest graph the tables accept: every value must fit their dtype
    n = ENUMERATION_LIMIT
    induced_tab, boundary_tab = brute_force_tables(complete_graph(n))
    assert induced_tab == [m * (m - 1) // 2 for m in range(n + 1)]
    assert boundary_tab == [m * (n - m) for m in range(n + 1)]


@pytest.mark.parametrize("n, edges, seed", [(18, 40, 3), (18, 153, 4), (17, 0, 5)])
def test_witnesses_are_the_lowest_extreme_subsets(n, edges, seed):
    # more than one lattice row: the witness is the lowest bitmask of size m
    # that attains the extreme, as a plain scan over every subset finds it
    rnd = random.Random(seed)
    g = Graph(n, rnd.sample(list(itertools.combinations(range(n), 2)), edges))
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    tables = [isoperimetric._subset_table(g, boundary) for boundary in (False, True)]
    for m in (1, 2, n // 2, n - 1, n):
        sel = np.flatnonzero(size == m)
        lowest = (
            int(sel[np.argmax(tables[0][sel])]),
            int(sel[np.argmin(tables[1][sel])]),
        )
        found = (brute_force_max_induced(g, m), brute_force_min_boundary(g, m))
        for witness, mask in zip(found, lowest):
            assert witness.vertices == tuple(v for v in range(n) if mask >> v & 1)


@given(st.integers(1, 14), st.integers(0, 14), st.data())
@settings(max_examples=100)
def test_folded_rows_match_a_plain_subset_loop(n, row_bits, data):
    # rows of 2**row_bits subsets: many rows per popcount class, where the
    # shipped row length gives graphs this small a single row
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    for boundary in (False, True):
        table = isoperimetric._subset_table(g, boundary)
        with mock.patch.object(isoperimetric, "_ROW", 1 << row_bits):
            got = isoperimetric._table_best_by_size(table, g.edge_count, boundary)
        assert got == best_by_size(g, boundary)


def test_the_fold_needs_the_table_and_a_few_rows():
    # at 20 vertices: the 2 MB table, then one folded row, its reordered
    # copy and the int32 column order (its argsort's intp order first)
    rnd = random.Random(20)
    g = Graph(20, rnd.sample(list(itertools.combinations(range(20), 2)), 60))
    isoperimetric._columns_by_popcount.cache_clear()  # count its argsort too
    tracemalloc.start()
    try:
        best = isoperimetric._best_by_size(g, boundary=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = isoperimetric._ROW * np.dtype(np.int16).itemsize
    assert peak <= (1 << 20) * np.dtype(np.int16).itemsize + 8 * row
    assert best[0] == best[20] == 0


def test_bounds_build_only_the_boundary_table(monkeypatch):
    asked = []
    subset_table = isoperimetric._subset_table

    def recording(graph, boundary):
        asked.append(boundary)
        return subset_table(graph, boundary)

    monkeypatch.setattr(isoperimetric, "_subset_table", recording)
    g = hypercube(3).graph
    assert lower_bound_generic(g) == 28
    assert minla_exact(g, "branch-and-bound").cost == 28
    assert asked == [True, True]
    brute_force_tables(g)  # the oracle builds both, one at a time
    assert asked == [True, True, False, True]


def test_witnesses_attain_table_values():
    g = hypercube(3).graph
    induced_tab, boundary_tab = brute_force_tables(g)
    for m in range(1, 9):
        wmax = brute_force_max_induced(g, m)
        assert len(wmax.vertices) == m
        assert wmax.induced_edge_count == induced_tab[m]
        wmin = brute_force_min_boundary(g, m)
        assert len(wmin.vertices) == m
        assert wmin.boundary_edge_count == boundary_tab[m]


def test_known_hypercube_witness_values():
    g = hypercube(3).graph
    assert brute_force_max_induced(g, 3).induced_edge_count == 2
    assert brute_force_max_induced(g, 4).induced_edge_count == 4
    assert brute_force_max_induced(g, 6).induced_edge_count == 7
    assert brute_force_min_boundary(g, 3).boundary_edge_count == 5
    assert brute_force_min_boundary(g, 4).boundary_edge_count == 4


def test_four_cycle_witnesses():
    c4 = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert brute_force_max_induced(c4, 1).induced_edge_count == 0
    assert brute_force_max_induced(c4, 2).induced_edge_count == 1
    assert brute_force_min_boundary(c4, 2).boundary_edge_count == 2


def test_regular_degree_sum_identity():
    # in a k-regular graph min boundary = k*m - 2*max induced, per size
    g = hypercube(3).graph
    induced_tab, boundary_tab = brute_force_tables(g)
    for m in range(1, 9):
        assert boundary_tab[m] == 3 * m - 2 * induced_tab[m]


def test_enumeration_limit_enforced():
    big = Graph(25, [(0, 1)])
    with pytest.raises(EnumerationLimitError):
        brute_force_tables(big)
    with pytest.raises(EnumerationLimitError):
        brute_force_max_induced(big, 2)
    huge = Graph(2**62, [(0, 1)])  # refused before any 2**N-sized work
    for check in (brute_force_tables, lambda g: brute_force_min_boundary(g, 2)):
        with pytest.raises(EnumerationLimitError):
            check(huge)
    with pytest.raises(ValueError):
        brute_force_max_induced(hypercube(2).graph, 5)


@given(st.integers(2, 4), st.integers(0, 2**64 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_family_members_meet_closed_forms(n, seed, data):
    bc = random_bc(n, seed)
    m = data.draw(st.integers(1, 1 << n))
    induced_tab, boundary_tab = brute_force_tables(bc.graph)
    assert induced_tab[m] == max_induced_edges(m)
    assert boundary_tab[m] == edge_boundary(n, m)
