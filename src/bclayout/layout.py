"""Linear arrangements: evaluation, lower bounds, exact search, certification.

An arrangement places the vertices on path positions 1..N; its cost is the
total edge span sum(|f(u) - f(v)|). Summing, over every prefix size m, a
lower bound on the number of edges crossing the cut after position m gives
a lower bound on the cost of any arrangement. For BC graphs the recursive
construction-tree arrangement meets that bound exactly, which certifies
minimality without search; independent exhaustive and branch-and-bound
solvers confirm it at small scale.

`certify_dimension` reports the proven cut profile theta(n, m), which every
BC graph of dimension n shares; `certify`, `evaluate_arrangement` and
`cut_profile` measure an edge array, so they also check graphs the proof
does not cover.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_DIMENSION_CAP,
    BcGraph,
    ConstructionTree,
    Graph,
    _check_cap,
    _integers,
)
from . import isoperimetric
from .rng import SplitMix64

EXHAUSTIVE_VERTEX_LIMIT = 8
BRANCH_AND_BOUND_VERTEX_LIMIT = 16
# `_accumulate` counts the edge rows in blocks of at least this many
_ACCUMULATE_ROWS = 1 << 18


class SolverLimitError(ValueError):
    """Graph is larger than the chosen search mode supports."""


class _BudgetExhausted(Exception):
    pass


class LinearArrangement:
    """Bijection from vertex ids 0..N-1 to path positions 1..N."""

    __slots__ = ("_positions",)

    def __init__(self, positions):
        positions = positions if isinstance(positions, np.ndarray) else list(positions)
        arr = _integers(positions, "positions must be integers").astype(np.int64)
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


@dataclass(frozen=True, eq=False)
class LayoutReport:
    """Cost of an arrangement against a lower bound. `closed_form` is the
    BC bound 2**(n-1) * (2**n - 1) when a BC witness applies, and then
    equals `lower_bound`; it is None for the generic enumeration bound.
    `cut_profile` is a read-only int64 array of per-cut crossing counts:
    entry i-1 is the number of edges whose endpoint positions straddle the
    gap between positions i and i+1."""

    cost: int
    lower_bound: int
    closed_form: int | None
    cut_profile: np.ndarray
    optimal: bool

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayoutReport):
            return NotImplemented
        scalars = (self.cost, self.lower_bound, self.closed_form, self.optimal)
        return scalars == (
            other.cost, other.lower_bound, other.closed_form, other.optimal
        ) and np.array_equal(self.cut_profile, other.cut_profile)


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search. `proven` is False only when the budget
    ran out before the search was complete."""

    cost: int
    arrangement: LinearArrangement
    proven: bool
    mode: str
    nodes_explored: int
    elapsed_seconds: float


def _check_sizes(graph: Graph, vertex_count: int) -> None:
    if vertex_count != graph.vertex_count:
        raise ValueError(
            f"arrangement covers {vertex_count} vertices, "
            f"graph has {graph.vertex_count}"
        )


def arrangement_cost(graph: Graph, arrangement: LinearArrangement) -> int:
    """Total edge span sum(|f(u) - f(v)|), exact."""
    lo, hi = _slot_pairs(graph, arrangement)
    return int(hi.sum()) - int(lo.sum())


def cut_profile(graph: Graph, arrangement: LinearArrangement) -> np.ndarray:
    """Crossing-edge counts for every cut of the arrangement, read-only int64."""
    return _accumulate(graph.vertex_count, *_slot_pairs(graph, arrangement))[1]


def _slot_pairs(graph: Graph, arrangement: LinearArrangement):
    """The edges as slot pairs lo <= hi; slot = position - 1."""
    _check_sizes(graph, len(arrangement))
    slots = arrangement.positions - 1
    edges = graph.edge_array
    lo, hi = slots[edges[:, 0]], slots[edges[:, 1]]
    return np.minimum(lo, hi), np.maximum(lo, hi, out=hi)  # min reads hi first


def _accumulate(size: int, lo, hi) -> tuple[int, np.ndarray]:
    """Total span and cut profile of the slot pairs lo <= hi in 0..size-1:
    an edge spans hi - lo, and cut c (after slot c) counts the edges with
    lo <= c < hi, a running sum of the starts lo minus the stops hi. int64
    is exact here: every span < N and M*N stays far below 2**63. The pairs
    are counted a block of rows at a time, as bincount copies a strided
    column whole; a block is at least N rows, so the counts cost no more."""
    delta = np.zeros(size, dtype=np.int64)
    step = max(_ACCUMULATE_ROWS, size)
    for start in range(0, len(lo), step):
        delta += np.bincount(lo[start : start + step], minlength=size)
        delta -= np.bincount(hi[start : start + step], minlength=size)
    profile = np.cumsum(delta)[: size - 1]
    profile.setflags(write=False)
    return int(hi.sum()) - int(lo.sum()), profile


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
    return isoperimetric.sum_edge_boundary(n)


def lower_bound_generic(graph: Graph) -> int:
    """Cost lower bound valid for any graph: sum over every prefix size of
    the exact minimum edge boundary, found by subset enumeration."""
    boundary_min = isoperimetric._best_by_size(graph, boundary=True)
    return sum(boundary_min[1 : graph.vertex_count])


def random_arrangement(vertex_count: int, rng: SplitMix64) -> LinearArrangement:
    """Uniformly random arrangement drawn from the pinned generator."""
    perm = rng.permutation(vertex_count)
    return LinearArrangement([p + 1 for p in perm])


def minla_exact(
    graph: Graph,
    mode: str = "exhaustive",
    *,
    budget_seconds: float | None = None,
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

    Repeated subtrees are replayed, not searched. While no leaf beats the
    incumbent, a subtree's search depends only on its placed set and its
    slack, best_cost - cut_sum: a child is pruned when its boundary plus
    the remaining cuts' minima meets the slack, a leaf improves when the
    slack is positive, and the anchor rule reads the placed set alone. So a
    subtree that finished without improving the incumbent stores its node
    count under (slack, placed set), and a later visit with the same key
    adds that count and returns. `nodes_explored` counts the nodes of the
    plain depth-first tree, replayed subtrees included, so it matches the
    search without the memo node for node.

    The incumbent starts as the identity arrangement. A budget is seconds
    >= 0 (inf: no limit); when it is exhausted, the best arrangement found
    so far is returned with proven=False instead of failing. The
    exhaustive scan reads the clock once every 1024 permutations.
    """
    n = graph.vertex_count
    _check_solver_limit(mode, n)
    if budget_seconds is not None and not budget_seconds >= 0:  # NaN fails too
        raise ValueError(f"budget must be at least 0 seconds, got {budget_seconds}")
    incumbent = LinearArrangement.identity(n)
    start = time.perf_counter()
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    solve = _solve_exhaustive if mode == "exhaustive" else _solve_branch_and_bound
    cost, arrangement, proven, nodes = solve(graph, incumbent, deadline)
    return ExactResult(
        cost, arrangement, proven, mode, nodes, time.perf_counter() - start
    )


def _check_solver_limit(mode: str, vertex_count: int) -> None:
    """Raise SolverLimitError unless `mode` searches graphs this large."""
    if mode == "exhaustive":
        limit = EXHAUSTIVE_VERTEX_LIMIT
    elif mode == "branch-and-bound":
        limit = BRANCH_AND_BOUND_VERTEX_LIMIT
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if vertex_count > limit:
        raise SolverLimitError(
            f"{mode} mode supports at most {limit} vertices, got {vertex_count}"
        )


def _solve_exhaustive(graph, incumbent, deadline):
    n = graph.vertex_count
    edges = list(graph.iter_edges())
    best_cost = arrangement_cost(graph, incumbent)
    best = tuple(incumbent.to_list())
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        count += 1
        # the clock is read at permutations 1, 1025, 2049, ...
        if deadline is not None and count & 1023 == 1 and time.monotonic() > deadline:
            return best_cost, LinearArrangement(best), False, count
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
    return best_cost, LinearArrangement(best), True, count


def _solve_branch_and_bound(graph, incumbent, deadline):
    n = graph.vertex_count
    table = isoperimetric._subset_table(graph, boundary=True)
    boundary_min = isoperimetric._table_best_by_size(table, graph.edge_count, boundary=True)
    boundary = table.tolist()  # boundary[S]: the edges leaving vertex set S
    # rest[k]: least possible crossing total of cuts k+1..n-1, any completion
    rest = [0] * (n + 1)
    for k in range(n - 2, -1, -1):
        rest[k] = rest[k + 1] + boundary_min[k + 1]
    best_cost = arrangement_cost(graph, incumbent)
    best_positions = incumbent.to_list()
    anchor_limit = (n + 1) // 2  # mirror-canonical: vertex 0 in the first half
    nodes = 0
    order: list[int] = []  # order[k] is the vertex placed at position k+1
    vertices = [(v, 1 << v) for v in range(n)]
    # (best_cost - cut_sum) << n | placed -> nodes of that subtree, for the
    # subtrees that finished without improving the incumbent
    memo: dict[int, int] = {}

    def search(placed: int, k: int, cut_sum: int) -> None:
        nonlocal nodes, best_cost, best_positions
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExhausted
        if k == n:
            if cut_sum < best_cost:
                best_cost = cut_sum
                best_positions = [0] * n
                for idx, v in enumerate(order):
                    best_positions[v] = idx + 1
            return
        if k >= anchor_limit and not placed & 1:
            return
        tail = rest[k + 1]
        for v, bit in vertices:
            if placed & bit:
                continue
            child = placed | bit
            next_cut_sum = cut_sum + boundary[child]
            if next_cut_sum + tail >= best_cost:
                continue
            key = (best_cost - next_cut_sum) << n | child
            replay = memo.get(key)
            if replay is not None:
                nodes += replay
                continue
            before, incumbent_cost = nodes, best_cost
            order.append(v)
            search(child, k + 1, next_cut_sum)
            order.pop()
            if best_cost == incumbent_cost:
                memo[key] = nodes - before

    try:
        search(0, 0, 0)
        proven = True
    except _BudgetExhausted:
        proven = False
    return best_cost, LinearArrangement(best_positions), proven, nodes


def certify(bc: BcGraph) -> LayoutReport:
    """Evaluate the construction-tree arrangement against the closed-form
    lower bound. Equality of achieved cost and universal lower bound proves
    minimality outright, so for a valid BC graph this reports optimal=True.
    The arrangement is the identity, slot v for vertex v, so the edge array
    is read as the slot pairs and measured.
    """
    _check_sizes(bc.graph, 1 << bc.tree.dimension)
    cost, profile = _accumulate(bc.graph.vertex_count, *bc.graph.edge_array.T)
    return _bc_report(bc.dimension, cost, profile)


def certify_dimension(n: int) -> LayoutReport:
    """`certify` of every BC graph of dimension n, from the proven cut
    profile: no graph or construction tree is read, as none is needed.

    Block lemma. Under the identity arrangement vertex v sits at slot v. A
    level-d block covers the slots base..base + 2**d - 1, and its matching
    joins x to h + phi(x) (local ids, h = 2**(d-1), x < h; level 1 is the
    edge (0, 1)). A cut with m slots before it meets one block of the level,
    at local position c = m mod 2**d; every other block lies on one side.
    Edge x crosses it when x < c <= h + phi(x). For c <= h every x < c does,
    as phi(x) >= 0: c edges. For c >= h every x < h lies left, and x crosses
    when phi(x) >= c - h; phi is a bijection onto 0..h-1, so 2**d - c do.
    Either way min(c, 2**d - c) edges cross, whatever phi is, so every tree
    has the cut profile theta(n, m) = sum over d = 1..n of that count. The
    block's spans sum to h*h + sum(phi) - sum(x) = 4**(d-1), so the cost is
    sum over d of 2**(n-d) * 4**(d-1).

    theta doubles: with h = 2**(d-1), theta_d[m] = theta_(d-1)[m] + m for
    m <= h, and theta_(d-1)[m - h] + 2**d - m for m >= h, which mirrors the
    first half, as theta_(d-1) is symmetric. The ramp 1..h is kept in the
    slots the mirror fills next, so no array but theta is allocated.
    """
    _check_cap(n, MAX_DIMENSION_CAP)
    theta = np.zeros((1 << n) + 1, dtype=np.int64)  # theta[m] for m = 0..2**n
    theta[2] = 1  # level 1's ramp
    for d in range(1, n + 1):
        h = 1 << (d - 1)
        ramp = theta[h + 1 : 2 * h + 1]  # 1..h, where the mirror goes next
        theta[1 : h + 1] += ramp
        if d < n:  # the next level's ramp 1..2h, past this level's end
            theta[2 * h + 1 : 3 * h + 1] = ramp
            np.add(ramp, h, out=theta[3 * h + 1 : 4 * h + 1])
        theta[h + 1 : 2 * h + 1] = theta[h - 1 :: -1]
    cost = sum((1 << (n - d)) * 4 ** (d - 1) for d in range(1, n + 1))
    profile = theta[1:-1]
    profile.setflags(write=False)
    return _bc_report(n, cost, profile)


def _bc_report(n: int, cost: int, profile: np.ndarray) -> LayoutReport:
    bound = lower_bound_closed(n)
    return LayoutReport(cost, bound, bound, profile, cost == bound)


def evaluate_arrangement(
    graph: Graph,
    arrangement: LinearArrangement,
    *,
    witness: BcGraph | None = None,
) -> LayoutReport:
    """Report for an arbitrary graph and arrangement.

    With a (caller-validated) BC witness the closed-form bound applies;
    otherwise the generic enumeration bound is used, which limits the graph
    to the subset-enumeration size; that limit is checked before any work.
    """
    if witness is None:
        _check_sizes(graph, len(arrangement))
        isoperimetric._check_enumerable(graph.vertex_count)
    cost, profile = _accumulate(graph.vertex_count, *_slot_pairs(graph, arrangement))
    closed = None if witness is None else lower_bound_closed(witness.dimension)
    bound = lower_bound_generic(graph) if closed is None else closed
    return LayoutReport(cost, bound, closed, profile, cost == bound)
