"""Exact solvers: exhaustive scan and branch-and-bound must agree."""

import itertools

import pytest

from bclayout import (
    Graph,
    LinearArrangement,
    SolverLimitError,
    SplitMix64,
    arrangement_cost,
    hypercube,
    lower_bound_closed,
    minla_exact,
    random_bc,
)
from bclayout import layout
from reference import _solve_branch_and_bound as plain_branch_and_bound


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, seed, density=2):
    """Deterministic arbitrary (usually non-BC) test graph."""
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randbelow(3) < density
    ]
    return Graph(n, edges)


def test_exhaustive_small_graphs():
    assert minla_exact(Graph(2, [(0, 1)]), "exhaustive").cost == 1
    c4 = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert minla_exact(c4, "exhaustive").cost == 6
    assert minla_exact(path_graph(4), "exhaustive").cost == 3
    assert minla_exact(path_graph(1), "exhaustive").cost == 0


def test_exhaustive_hypercube_dim3():
    result = minla_exact(hypercube(3).graph, "exhaustive")
    assert result.cost == 28
    assert result.proven
    assert result.nodes_explored == 40320
    # the witness really attains the reported cost
    assert arrangement_cost(hypercube(3).graph, result.arrangement) == 28


def tick_clock(monkeypatch):
    """Make the solvers' clock read 0, 1, 2, ...: one tick per read."""
    ticks = itertools.count()
    monkeypatch.setattr(layout.time, "monotonic", lambda: next(ticks))


def test_exhaustive_reads_the_clock_every_1024_permutations(monkeypatch):
    # the deadline is read 0 + 1.5; permutation 1 reads 1 and goes on,
    # permutation 1025 reads 2 and stops the scan
    tick_clock(monkeypatch)
    g = random_graph(8, 5)
    result = minla_exact(g, "exhaustive", budget_seconds=1.5)
    assert (result.proven, result.nodes_explored) == (False, 1025)
    assert result.cost == arrangement_cost(g, result.arrangement)
    assert result.cost < arrangement_cost(g, LinearArrangement.identity(8))


@pytest.mark.parametrize("seed", [3, 7, 21, 101, 2024, 555])
def test_branch_and_bound_matches_exhaustive(seed):
    g = random_graph(7, seed)
    a = minla_exact(g, "exhaustive")
    b = minla_exact(g, "branch-and-bound")
    assert a.cost == b.cost
    assert b.proven
    assert arrangement_cost(g, b.arrangement) == b.cost


def test_branch_and_bound_hypercube_dim4():
    result = minla_exact(hypercube(4).graph, "branch-and-bound")
    assert result.cost == 120 == lower_bound_closed(4)
    assert result.proven


def test_branch_and_bound_random_bc_dim4():
    for seed in (1, 2, 3):
        g = random_bc(4, seed).graph
        result = minla_exact(g, "branch-and-bound", budget_seconds=60)
        assert result.cost == 120
        assert result.proven


def test_size_limits():
    with pytest.raises(SolverLimitError):
        minla_exact(path_graph(9), "exhaustive")
    with pytest.raises(SolverLimitError):
        minla_exact(path_graph(17), "branch-and-bound")
    with pytest.raises(ValueError):
        minla_exact(path_graph(3), "annealing")


def test_budget_exhaustion_returns_incumbent():
    g = random_graph(14, 9, density=1)
    result = minla_exact(g, "branch-and-bound", budget_seconds=0.0)
    assert not result.proven
    assert result.cost == arrangement_cost(g, LinearArrangement.identity(14))


@pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
@pytest.mark.parametrize("mode", ["exhaustive", "branch-and-bound"])
def test_a_budget_below_0_is_refused(mode, budget):
    # the CLI's parser refuses these first; the library still checks its argument
    with pytest.raises(ValueError, match="^budget must be at least 0 seconds"):
        minla_exact(path_graph(3), mode, budget_seconds=budget)


def test_search_is_deterministic():
    g = random_graph(8, 33)
    a = minla_exact(g, "branch-and-bound")
    b = minla_exact(g, "branch-and-bound")
    assert a.cost == b.cost
    assert a.nodes_explored == b.nodes_explored
    assert a.arrangement == b.arrangement


def test_branch_and_bound_budget_stops_a_memoized_search(monkeypatch):
    # one clock read per node searched, so the 2001st node searched stops
    # the search; replayed subtrees are counted without a read
    tick_clock(monkeypatch)
    g = random_graph(14, 3, density=1)
    result = minla_exact(g, "branch-and-bound", budget_seconds=2000)
    assert not result.proven
    assert result.cost == arrangement_cost(g, result.arrangement)
    assert result.cost < arrangement_cost(g, LinearArrangement.identity(14))
    assert result.nodes_explored > 2001


@pytest.mark.parametrize("n", range(6, 15))
def test_branch_and_bound_replays_the_plain_search(n):
    # same nodes, same order, same first optimum as the search without memo
    cases = [(1, 1), (1, 2), (3, 1)] if n == 14 else [(1, 1), (1, 2), (2, 1), (2, 2)]
    for seed, density in cases:
        g = random_graph(n, seed, density)
        cost, arrangement, proven, nodes = plain_branch_and_bound(
            g, LinearArrangement.identity(n), None
        )
        result = minla_exact(g, "branch-and-bound")
        assert (result.cost, result.proven, result.nodes_explored) == (cost, proven, nodes)
        assert result.arrangement == arrangement


@pytest.mark.parametrize(
    "seed,cost,nodes,positions",
    [
        (1, 43, 22538, [5, 2, 11, 7, 10, 4, 12, 3, 8, 9, 1, 6]),
        (2, 54, 14983, [6, 1, 8, 10, 7, 3, 5, 11, 2, 4, 9, 12]),
        (3, 134, 4438102, [4, 15, 7, 5, 6, 3, 10, 1, 13, 16, 11, 12, 2, 8, 9, 14]),
        (21, 93, 7147368, [1, 15, 13, 14, 2, 7, 12, 4, 5, 3, 11, 9, 10, 16, 8, 6]),
    ],
)
def test_branch_and_bound_search_order_is_pinned(seed, cost, nodes, positions):
    # the node count and the first optimum found change with the child order,
    # the pruning test or the anchor rule, even when the cost does not; the
    # 16-vertex cases took 6-12 s without the subtree memo
    g = random_graph(len(positions), seed, density=1)
    result = minla_exact(g, "branch-and-bound")
    assert (result.cost, result.nodes_explored) == (cost, nodes)
    assert result.arrangement.to_list() == positions
