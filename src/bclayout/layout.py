"""Linear arrangements: evaluation, lower bounds, exact search, certification.

An arrangement places the vertices on path positions 1..N; its cost is the
total edge span sum(|f(u) - f(v)|). Summing, over every prefix size m, a
lower bound on the number of edges crossing the cut after position m gives
a lower bound on the cost of any arrangement. For BC graphs the recursive
construction-tree arrangement meets that bound exactly, which certifies
minimality without search; independent exhaustive and branch-and-bound
solvers confirm it at small scale.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    BcGraph,
    ConstructionTree,
    Graph,
    check_permutation,
)
from .isoperimetric import brute_force_tables, sum_edge_boundary
from .rng import SplitMix64

EXHAUSTIVE_VERTEX_LIMIT = 8
BRANCH_AND_BOUND_VERTEX_LIMIT = 16


class SolverLimitError(ValueError):
    """Graph is larger than the chosen search mode supports."""


class _BudgetExhausted(Exception):
    pass


class LinearArrangement:
    """Bijection from vertex ids 0..N-1 to path positions 1..N."""

    __slots__ = ("_positions",)

    def __init__(self, positions):
        if isinstance(positions, np.ndarray):
            kinds = {positions.dtype.type}
        else:
            positions = list(positions)
            kinds = set(map(type, positions))
        if any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds):
            raise ValueError("positions must be integers")
        try:
            arr = np.array(positions, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"positions must lie in 1..{len(positions)}") from exc
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("positions must be a non-empty sequence")
        n = arr.size
        if arr.min() < 1 or arr.max() > n:
            raise ValueError(f"positions must lie in 1..{n}")
        if np.bincount(arr, minlength=n + 1)[1:].max() != 1:
            raise ValueError("positions must be a bijection onto 1..N")
        arr.setflags(write=False)
        self._positions = arr

    @classmethod
    def identity(cls, vertex_count: int) -> "LinearArrangement":
        return cls(np.arange(1, vertex_count + 1, dtype=np.int64))

    @property
    def positions(self) -> np.ndarray:
        """Read-only array; entry v holds the position of vertex v."""
        return self._positions

    def position_of(self, vertex: int) -> int:
        return int(self._positions[vertex])

    def to_list(self) -> list[int]:
        return self._positions.tolist()

    def reverse(self) -> "LinearArrangement":
        """Mirror arrangement f(v) -> N + 1 - f(v)."""
        return LinearArrangement(len(self) + 1 - self._positions)

    def __len__(self) -> int:
        return self._positions.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearArrangement):
            return NotImplemented
        return np.array_equal(self._positions, other._positions)

    def __repr__(self) -> str:
        return f"LinearArrangement(n={len(self)})"


@dataclass(frozen=True)
class CutProfile:
    """Per-cut crossing counts: counts[i-1] is the number of edges whose
    endpoint positions straddle the gap between positions i and i+1."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class LayoutReport:
    """Cost of an arrangement against a lower bound. `closed_form` is the
    BC bound 2**(n-1) * (2**n - 1) when a BC witness applies, and then
    equals `lower_bound`; it is None for the generic enumeration bound."""

    cost: int
    lower_bound: int
    closed_form: int | None
    cut_profile: CutProfile
    optimal: bool


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search. `proven` is False only when a
    branch-and-bound budget ran out before the tree was exhausted."""

    cost: int
    arrangement: LinearArrangement
    proven: bool
    mode: str
    nodes_explored: int
    elapsed_seconds: float


def _check_sizes(graph: Graph, arrangement: LinearArrangement) -> None:
    if len(arrangement) != graph.vertex_count:
        raise ValueError(
            f"arrangement covers {len(arrangement)} vertices, "
            f"graph has {graph.vertex_count}"
        )


def arrangement_cost(graph: Graph, arrangement: LinearArrangement) -> int:
    """Total edge span sum(|f(u) - f(v)|), exact."""
    _check_sizes(graph, arrangement)
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return 0
    pos = arrangement.positions
    # int64 is exact here: every span < N and M*N stays far below 2**63
    spans = pos[edges[:, 0]]
    spans -= pos[edges[:, 1]]
    return int(np.abs(spans, out=spans).sum())


def cut_profile(graph: Graph, arrangement: LinearArrangement) -> CutProfile:
    """Crossing-edge counts for every cut of the arrangement."""
    _check_sizes(graph, arrangement)
    n = graph.vertex_count
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return CutProfile((0,) * (n - 1))
    pos = arrangement.positions
    pu = pos[edges[:, 0]]
    pv = pos[edges[:, 1]]
    # An edge crosses cut i exactly when min <= i < max of its positions, so
    # the running sum of (#edges starting at i) - (#edges ending at i) is the
    # crossing count. At most three M-length arrays are alive at once.
    stops = np.bincount(np.maximum(pu, pv), minlength=n + 1)
    starts = np.bincount(np.minimum(pu, pv, out=pu), minlength=n + 1)
    running = np.cumsum(starts - stops)
    return CutProfile(tuple(running[1:n].tolist()))


def bc_arrangement(tree: ConstructionTree) -> LinearArrangement:
    """The recursive construction-tree arrangement.

    The left block keeps its (n-1)-dimensional positions and the right block
    is shifted by half. Under the global id convention this is f(v) = v + 1
    for every tree, so the identity is returned without walking the tree.
    """
    return LinearArrangement.identity(1 << tree.dimension)


def lower_bound_closed(n: int) -> int:
    """Cost lower bound for any dimension-n BC graph: the sum of the
    per-prefix minimum edge boundaries, 2**(n-1) * (2**n - 1)."""
    return sum_edge_boundary(n)


def lower_bound_generic(graph: Graph) -> int:
    """Cost lower bound valid for any graph: sum over every prefix size of
    the exact minimum edge boundary, found by subset enumeration."""
    _, boundary_min = brute_force_tables(graph)
    return sum(boundary_min[1 : graph.vertex_count])


def cross_matching_cost(n: int, phi) -> int:
    """Span contributed by the matching edges (v, phi[v] + half) when both
    halves keep their recursive arrangements. Every term is positive, so the
    sum collapses to 4**(n-1) regardless of the permutation."""
    if n < 1:
        raise ValueError("dimension must be positive")
    half = 1 << (n - 1)
    phi = check_permutation(phi, half)
    return sum(abs((phi[v] + half + 1) - (v + 1)) for v in range(half))


def random_arrangement(vertex_count: int, rng: SplitMix64) -> LinearArrangement:
    """Uniformly random arrangement drawn from the pinned generator."""
    perm = rng.permutation(vertex_count)
    return LinearArrangement([p + 1 for p in perm])


def minla_exact(
    graph: Graph,
    mode: str = "exhaustive",
    *,
    budget_seconds: float | None = None,
    incumbent: LinearArrangement | None = None,
) -> ExactResult:
    """Exact minimum linear arrangement search.

    Modes:
      - "exhaustive": scan all N! arrangements (N <= 8).
      - "branch-and-bound": depth-first prefix search (N <= 16). A prefix is
        pruned when its committed cost (full spans of internal edges plus
        the spans boundary edges have already accumulated) plus the exact
        minimum boundary of every remaining cut meets the incumbent.
        Reversal symmetry is folded away by requiring vertex 0 to sit in the
        first half of the positions. Children are explored in ascending
        vertex id, so results are deterministic.

    The incumbent defaults to the identity arrangement. When a budget is set
    and exhausted, the best arrangement found so far is returned with
    proven=False instead of failing.
    """
    n = graph.vertex_count
    if mode == "exhaustive":
        limit = EXHAUSTIVE_VERTEX_LIMIT
    elif mode == "branch-and-bound":
        limit = BRANCH_AND_BOUND_VERTEX_LIMIT
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if n > limit:
        raise SolverLimitError(
            f"{mode} mode supports at most {limit} vertices, got {n}"
        )
    if incumbent is None:
        incumbent = LinearArrangement.identity(n)
    else:
        _check_sizes(graph, incumbent)
    start = time.perf_counter()
    if mode == "exhaustive":
        cost, arrangement, nodes = _solve_exhaustive(graph, incumbent)
        proven = True
    else:
        cost, arrangement, proven, nodes = _solve_branch_and_bound(
            graph, incumbent, budget_seconds
        )
    return ExactResult(
        cost, arrangement, proven, mode, nodes, time.perf_counter() - start
    )


def _solve_exhaustive(graph, incumbent):
    n = graph.vertex_count
    edges = list(graph.iter_edges())
    best_cost = arrangement_cost(graph, incumbent)
    best = tuple(incumbent.to_list())
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        count += 1
        total = 0
        for u, v in edges:
            d = perm[u] - perm[v]
            total += d if d >= 0 else -d
            if total >= best_cost:
                break
        else:
            if total < best_cost:
                best_cost = total
                best = perm
    return best_cost, LinearArrangement(best), count


def _solve_branch_and_bound(graph, incumbent, budget_seconds):
    n = graph.vertex_count
    masks = graph.adjacency_masks()
    degrees = [int(d) for d in graph.degrees()]
    _, boundary_min = brute_force_tables(graph)
    # rest[k]: least possible crossing total of cuts k+1..n-1, any completion
    rest = [0] * (n + 1)
    for k in range(n - 2, -1, -1):
        rest[k] = rest[k + 1] + boundary_min[k + 1]
    best_cost = arrangement_cost(graph, incumbent)
    best_positions = incumbent.to_list()
    anchor_limit = (n + 1) // 2  # mirror-canonical: vertex 0 in the first half
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    state = {"nodes": 0, "cost": best_cost, "positions": best_positions}
    order: list[int] = []  # order[k] is the vertex placed at position k+1

    def search(placed: int, k: int, cut_sum: int, boundary: int) -> None:
        state["nodes"] += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExhausted
        if k == n:
            if cut_sum < state["cost"]:
                state["cost"] = cut_sum
                positions = [0] * n
                for idx, v in enumerate(order):
                    positions[v] = idx + 1
                state["positions"] = positions
            return
        if k >= anchor_limit and not placed & 1:
            return
        for v in range(n):
            bit = 1 << v
            if placed & bit:
                continue
            next_boundary = boundary + degrees[v] - 2 * (masks[v] & placed).bit_count()
            next_cut_sum = cut_sum + next_boundary
            if next_cut_sum + rest[k + 1] >= state["cost"]:
                continue
            order.append(v)
            search(placed | bit, k + 1, next_cut_sum, next_boundary)
            order.pop()

    try:
        search(0, 0, 0, 0)
        proven = True
    except _BudgetExhausted:
        proven = False
    return (
        state["cost"],
        LinearArrangement(state["positions"]),
        proven,
        state["nodes"],
    )


def certify(bc: BcGraph) -> LayoutReport:
    """Evaluate the construction-tree arrangement against the closed-form
    lower bound. Equality of achieved cost and universal lower bound proves
    minimality outright, so for a valid BC graph this reports optimal=True.
    """
    return evaluate_arrangement(bc.graph, bc_arrangement(bc.tree), witness=bc)


def evaluate_arrangement(
    graph: Graph,
    arrangement: LinearArrangement,
    *,
    witness: BcGraph | None = None,
) -> LayoutReport:
    """Report for an arbitrary graph and arrangement.

    With a (caller-validated) BC witness the closed-form bound applies;
    otherwise the generic enumeration bound is used, which limits the graph
    to the subset-enumeration size.
    """
    cost = arrangement_cost(graph, arrangement)
    profile = cut_profile(graph, arrangement)
    if witness is not None:
        bound = lower_bound_closed(witness.dimension)
        closed: int | None = bound
    else:
        bound = lower_bound_generic(graph)
        closed = None
    return LayoutReport(cost, bound, closed, profile, cost == bound)
