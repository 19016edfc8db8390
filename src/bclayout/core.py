"""Graph values, construction trees, and the bijective-connection composition.

A bijective-connection (BC) graph of dimension n is built recursively: the
dimension-1 graph is a single edge, and a dimension-n graph joins two
dimension-(n-1) graphs by a perfect matching induced by a bijection ``phi``
between their vertex sets. Every graph produced here carries its
construction tree as an explicit witness: one array of phi rows per level
(`ConstructionTree`), not one object per tree node.

Vertex id convention: a left-subtree vertex keeps its local id, a
right-subtree vertex is shifted by half the vertex count, so the top bit
distinguishes the halves at every recursion level and the all-identity tree
materializes to the bit-flip hypercube.

Canonical order for free: the tree node of dimension d above vertex u adds
one edge at u, and that edge leads above u exactly when bit d-1 of u is 0.
Those upper neighbours rise with d, because the level-d neighbour lies in
u's dimension-d block and every larger level's neighbour lies past it. So u
has n - popcount(u) upper neighbours, and its level-d row, if any, is its
first row plus the number of zero bits of u below bit d-1.

So the rows of 2**_WINDOW consecutive vertices (aligned) are one contiguous
slice of the edge array, made a window at a time (`_canonical_windows`):
column 0 repeats each vertex u n - popcount(u) times, and column 1 is
scattered into the slice, every level-d block inside the window for
d <= _WINDOW, and for a larger d the window's slice of its block's phi row
when the window lies in the block's lower half. `materialize` writes the
windows into the edge array, and `validate` compares the graph's rows with
them window by window; a row (u, v) of level d has u ^ v below 2**d and at
least 2**(d-1), so a differing row names its level and block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

DEFAULT_DIMENSION_CAP = 25
# Hard ceiling on the configurable cap: with n <= 26 every edge-span sum is
# below n * 2**(n-1) * 2**n < 2**58, so int64 accumulation stays exact.
MAX_DIMENSION_CAP = 26
# `materialize` and `validate` make the edge rows 2**_WINDOW vertices at a time
_WINDOW = 12


class DimensionCapError(ValueError):
    """Materializing this dimension would exceed the configured cap."""


def _integers(values, message: str) -> np.ndarray:
    """`values` as an array, not copied if it is one. Raise ValueError(message)
    unless every entry is an integer: an integer dtype (an empty array has no
    entries), and in a list no Python or numpy bool, which numpy reads as 1 or
    0 beside ints. Ragged lists raise numpy's own ValueError."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(message)
    if arr.ndim and arr is not values:  # one C-level pass over the entries' types
        for _ in range(arr.ndim - 1):
            values = chain.from_iterable(values)
        if not {bool, np.bool_}.isdisjoint(map(type, values)):
            raise ValueError(message)
    return arr


def check_permutation(rows, size: int) -> np.ndarray:
    """Return a read-only int32 copy of `rows`, a tree level's (count, size)
    array-like of permutations; raise ValueError unless every row permutes
    0..size-1 with integer (not bool) entries. One vectorized pass a level."""
    arr = _integers(rows, "permutation entries must be integers")
    if arr.ndim != 2 or arr.shape[1] != size:
        raise ValueError(f"expected permutations of {size} elements, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"permutation value out of range 0..{size - 1}")
    arr = arr.astype(np.int32)  # a copy: no later write to `rows` reaches a tree
    seen = np.zeros(arr.shape, dtype=bool)
    np.put_along_axis(seen, arr, True, axis=1)
    if not seen.all():
        raise ValueError(f"permutation row {np.argmin(seen.all(axis=1))} repeats a value")
    arr.setflags(write=False)
    return arr


def _check_cap(dimension: int, cap: int) -> None:
    """The dimension policy, checked where a dimension enters the program."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if not 1 <= cap <= MAX_DIMENSION_CAP:
        raise ValueError(f"cap must be in 1..{MAX_DIMENSION_CAP}")
    if dimension > cap:
        raise DimensionCapError(
            f"dimension {dimension} exceeds the materialization cap {cap}"
        )


class Graph:
    """Immutable undirected graph on vertex ids 0..N-1.

    Edges are held as a read-only (M, 2) int64 array with u < v in each row,
    rows sorted lexicographically. No self-loops, no duplicates. A given
    array is copied; `_adopt` holds an array the library made uncopied.
    """

    __slots__ = ("vertex_count", "_edges")

    def __init__(self, vertex_count: int, edges=()):
        vertex_count = operator.index(vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        raw = _integers(edges, "edge endpoints must be integers")
        if raw.size == 0:
            raw = np.empty((0, 2), dtype=np.int64)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        arr = _canonical_edges(vertex_count, raw.astype(np.int64, copy=raw is edges))
        arr.setflags(write=False)
        self.vertex_count = vertex_count
        self._edges = arr

    @classmethod
    def _adopt(cls, vertex_count: int, edges: np.ndarray) -> Graph:
        """A frozen graph holding `edges`, unchecked: for canonical rows the library made."""
        graph = object.__new__(cls)
        edges.setflags(write=False)
        graph.vertex_count = vertex_count
        graph._edges = edges
        return graph

    @property
    def edge_count(self) -> int:
        return self._edges.shape[0]

    @property
    def edge_array(self) -> np.ndarray:
        """Canonical (M, 2) edge array; read-only view."""
        return self._edges

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        for u, v in self._edges.tolist():
            yield u, v

    def degrees(self) -> np.ndarray:
        return np.bincount(self._edges.ravel(), minlength=self.vertex_count)

    def adjacency_masks(self) -> list[int]:
        """Neighbor sets as integer bitmasks, for subset enumeration."""
        if self.vertex_count > 64:
            raise ValueError("adjacency masks are limited to 64 vertices")
        masks = [0] * self.vertex_count
        for u, v in self.iter_edges():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(
            self._edges, other._edges
        )

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count}, edge_count={self.edge_count})"


def _canonical_edges(vertex_count: int, arr: np.ndarray) -> np.ndarray:
    """The canonical rows of an (M, 2) int64 array no one else holds, after Graph's checks."""
    lo, hi = arr[:, 0], arr[:, 1]
    if len(arr) and (arr.min() < 0 or arr.max() >= vertex_count):
        raise ValueError("edge endpoint out of range")
    if (lo == hi).any():
        raise ValueError("self-loops are not allowed")
    if (lo > hi).any():
        arr = np.sort(arr, axis=1)
        lo, hi = arr[:, 0], arr[:, 1]
    # materialized graphs and saved edge lists arrive sorted
    if not _strictly_increasing(lo, hi):
        arr = arr[np.lexsort((hi, lo))]
        if not _strictly_increasing(arr[:, 0], arr[:, 1]):
            raise ValueError("duplicate edges are not allowed")
    return arr


def _strictly_increasing(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the rows (lo[i], hi[i]) increase strictly in (lo, hi) order.
    Compares the columns, as a packed key could overflow int64."""
    lo0, lo1 = lo[:-1], lo[1:]
    return bool(((lo0 < lo1) | ((lo0 == lo1) & (hi[:-1] < hi[1:]))).all())


@dataclass(frozen=True, eq=False)
class ConstructionTree:
    """A construction tree of dimension n, one matching per level: for d =
    2..n, `levels[d - 2]` holds read-only arrays (phis, which) of permutation
    rows, (rows, 2**(d-1)) int32, and of the row of each level-d block. Block
    b joins blocks 2b and 2b + 1 below with v -> phis[which[b]][v]. Shared
    subtrees share rows. Given rows are copied and checked to be permutations."""

    dimension: int
    levels: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        n = self.dimension
        if len(self.levels) != n - 1:
            raise ValueError(f"a dimension-{n} tree has {n - 1} levels")
        levels = []
        for d, (phis, which) in enumerate(self.levels, start=2):
            try:
                phis = check_permutation(phis, 1 << (d - 1))
            except ValueError as exc:
                raise ValueError(f"tree level {d}: {exc}") from exc
            message = f"tree level {d} needs a row index per block"
            which = _integers(which, message).astype(np.intp)  # a copy
            if which.shape != (1 << (n - d),) or not 0 <= which.min() <= which.max() < len(phis):
                raise ValueError(message)
            which.setflags(write=False)
            levels.append((phis, which))
        object.__setattr__(self, "levels", tuple(levels))

    @classmethod
    def _adopt(cls, dimension: int, levels) -> ConstructionTree:
        """A frozen tree holding `levels`, unchecked: for rows the library made."""
        tree = object.__new__(cls)
        for array in chain.from_iterable(levels):
            array.setflags(write=False)
        tree.__dict__.update(dimension=dimension, levels=tuple(levels))
        return tree

    @property
    def phi(self) -> tuple[int, ...]:
        """The top permutation, as a tuple of ints."""
        if not self.levels:
            raise AttributeError("a dimension-1 tree has no permutation")
        phis, which = self.levels[-1]
        return tuple(phis[which[0]].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstructionTree):
            return NotImplemented
        return self.dimension == other.dimension and all(
            np.array_equal(p[w], q[x])
            for (p, w), (q, x) in zip(self.levels, other.levels)
        )


class Node:
    """`Node(left, right, phi)` is the construction tree joining two trees of
    equal dimension with the matching v -> phi[v] + half; only `phi` is checked."""

    def __new__(cls, left: ConstructionTree, right: ConstructionTree, phi) -> ConstructionTree:
        if left.dimension != right.dimension:
            raise ValueError("left and right subtrees must have equal dimension")
        levels = [
            (np.concatenate([lp, rp]), np.concatenate([lw, rw.astype(np.intp) + len(lp)]))
            for (lp, lw), (rp, rw) in zip(left.levels, right.levels)
        ]
        levels.append((check_permutation([phi], 1 << left.dimension), np.zeros(1, np.intp)))
        return ConstructionTree._adopt(left.dimension + 1, levels)


@dataclass(frozen=True)
class BcGraph:
    """A materialized BC graph together with its construction witness.

    Plain container; use validate() to check the invariants (n-regularity,
    2**n vertices, witness agreement).
    """

    dimension: int
    graph: Graph
    tree: ConstructionTree


def _canonical_windows(tree: ConstructionTree) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, rows) for the canonical edge rows of a construction
    tree, a window of 2**_WINDOW vertices at a time: `rows` is the (k, 2)
    int64 slice first..first + k - 1 of the edge array, in one buffer that
    the next window overwrites. See the module docstring for the order."""
    n = tree.dimension
    w = min(n, _WINDOW)
    local = np.arange(1 << w)
    count = np.bitwise_count(local).astype(np.int64)
    before = np.cumsum(count) - count  # set bits of the window's earlier vertices
    # level d <= w: the lower-half vertices of the window's blocks, and the
    # row each takes after its vertex's first row
    inner = []
    for d in range(1, w + 1):
        half = 1 << (d - 1)
        x = np.arange(half)
        u = ((np.arange(1 << (w - d)) << d)[:, None] + x).ravel()
        inner.append((d, u, np.tile(d - 1 - np.bitwise_count(x), 1 << (w - d))))
    buffer = np.empty((n << w, 2), dtype=np.int64)
    first = 0
    for start in range(0, 1 << n, 1 << w):
        upper = n - start.bit_count()  # of the window's first vertex
        rows = buffer[: (upper << w) - (w << w >> 1)]
        at = local * upper - before  # each vertex's first row
        rows[:, 0] = np.repeat(start + local, upper - count)
        column = rows[:, 1]
        for d, u, offset in inner:
            if d == 1:  # a leaf is the edge (0, 1)
                v = start + u + 1
            else:
                phis, which = tree.levels[d - 2]
                block = (start >> d) + np.arange(1 << (w - d))
                v = (phis[which[block]] + ((block << d) + (1 << (d - 1)))[:, None]).ravel()
            column[at[u] + offset] = v
        for d in range(w + 1, n + 1):
            half = 1 << (d - 1)
            if start & half:
                continue  # the window lies in the upper half of its block
            phis, which = tree.levels[d - 2]
            block, x = start >> d, start & (half - 1)
            v = phis[which[block], x : x + (1 << w)] + ((block << d) + half)
            column[at - count + (d - 1 - x.bit_count())] = v
        yield first, rows
        first += len(rows)


def materialize(tree: ConstructionTree) -> Graph:
    """Build the concrete graph described by a construction tree.

    Writes the canonical rows a window at a time (`_canonical_windows`), so
    the graph adopts them without Graph's sort and checks: every tree row is
    a permutation, and the module docstring proves the order.
    Raises DimensionCapError above MAX_DIMENSION_CAP; a smaller cap is the
    caller's.
    """
    n = tree.dimension
    if n > MAX_DIMENSION_CAP:
        raise DimensionCapError(f"dimension {n} exceeds the ceiling {MAX_DIMENSION_CAP}")
    edges = np.empty((n << (n - 1), 2), dtype=np.int64)
    for first, rows in _canonical_windows(tree):
        edges[first : first + len(rows)] = rows
    return Graph._adopt(1 << n, edges)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate(bc: BcGraph) -> ValidationReport:
    """Check every BcGraph invariant; violations are reported, not raised.
    The edges are compared with the tree's canonical rows a window at a
    time, and the highest level that differs is named with its first
    differing block."""
    violations: list[str] = []
    n = bc.dimension
    if n < 1:
        return ValidationReport(False, (f"dimension {n} is not positive",))
    if bc.tree.dimension != n:
        violations.append(
            f"construction tree has dimension {bc.tree.dimension}, expected {n}"
        )
    expected_vertices = 1 << n
    expected_edges = n * (1 << (n - 1))
    if bc.graph.vertex_count != expected_vertices:
        violations.append(
            f"graph has {bc.graph.vertex_count} vertices, expected {expected_vertices}"
        )
    if bc.graph.edge_count != expected_edges:
        violations.append(
            f"graph has {bc.graph.edge_count} edges, expected {expected_edges}"
        )
    # with these sizes the tree's levels fill exactly the canonical edge rows;
    # a canonical row (u, v) is of level d = bit_length(u ^ v), in block u >> d
    sized = not violations
    level = block = 0
    edges = bc.graph.edge_array
    for first, rows in _canonical_windows(bc.tree) if sized else ():
        got = edges[first : first + len(rows)]
        if not np.array_equal(got, rows):
            u, v = rows[(got != rows).any(axis=1)].T
            d = np.frexp(u ^ v)[1]
            if d.max() > level:
                level = int(d.max())
                block = int(u[d == level].min()) >> level
    # when every level matches, the graph is the tree's graph: n-regular
    if not sized or level:
        degrees = bc.graph.degrees()
        bad = np.flatnonzero(degrees != n)
        if bad.size:
            sample = ", ".join(
                f"vertex {int(v)} has degree {int(degrees[v])}" for v in bad[:8]
            )
            more = "" if bad.size <= 8 else f" (and {bad.size - 8} more)"
            violations.append(f"not {n}-regular: {sample}{more}")
    if level:
        violations.append(
            "graph edges differ from those generated by the construction tree: "
            f"level {level}, block {block} (vertices {block << level}..{(block + 1 << level) - 1})"
        )
    return ValidationReport(not violations, tuple(violations))
