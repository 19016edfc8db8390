"""Exact solvers: exhaustive scan and branch-and-bound must agree."""

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


def test_search_is_deterministic():
    g = random_graph(8, 33)
    a = minla_exact(g, "branch-and-bound")
    b = minla_exact(g, "branch-and-bound")
    assert a.cost == b.cost
    assert a.nodes_explored == b.nodes_explored
    assert a.arrangement == b.arrangement


@pytest.mark.parametrize(
    "seed,cost,nodes,positions",
    [
        (1, 43, 22538, [5, 2, 11, 7, 10, 4, 12, 3, 8, 9, 1, 6]),
        (2, 54, 14983, [6, 1, 8, 10, 7, 3, 5, 11, 2, 4, 9, 12]),
    ],
)
def test_branch_and_bound_search_order_is_pinned(seed, cost, nodes, positions):
    # the node count and the first optimum found change with the child order,
    # the pruning test or the anchor rule, even when the cost does not
    result = minla_exact(random_graph(12, seed, density=1), "branch-and-bound")
    assert (result.cost, result.nodes_explored) == (cost, nodes)
    assert result.arrangement.to_list() == positions
