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
has n - popcount(u) upper neighbours, and `materialize` writes each level's
matching straight into the rows that sorting by (u, v) would give it.
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


class DimensionCapError(ValueError):
    """Materializing this dimension would exceed the configured cap."""


def check_permutation(rows, size: int) -> np.ndarray:
    """Return `rows`, a tree level's (count, size) array-like of permutations,
    as a read-only int32 array; raise ValueError unless every row permutes
    0..size-1 with integer (not bool) entries. One vectorized pass a level."""
    arr = np.asarray(rows)  # ragged rows raise ValueError here
    if arr.ndim != 2 or arr.shape[1] != size:
        raise ValueError(f"expected permutations of {size} elements, got shape {arr.shape}")
    scan = () if arr is rows else chain.from_iterable(rows)  # bools hide in int lists
    if arr.dtype.kind not in "iu" or bool in map(type, scan):
        raise ValueError("permutation entries must be integers")
    if arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"permutation value out of range 0..{size - 1}")
    arr = arr.astype(np.int32, copy=arr is rows and arr.flags.writeable)
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
    rows sorted lexicographically. No self-loops, no duplicates.
    """

    __slots__ = ("vertex_count", "_edges")

    def __init__(self, vertex_count: int, edges=()):
        vertex_count = operator.index(vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        raw = edges if isinstance(edges, np.ndarray) else np.array(list(edges))
        if raw.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        else:
            if raw.ndim != 2 or raw.shape[1] != 2:
                raise ValueError("edges must be pairs of vertex ids")
            if not np.issubdtype(raw.dtype, np.integer):
                raise ValueError("edge endpoints must be integers")
            # copy only an array the caller can still write to
            arr = raw.astype(np.int64, copy=raw is edges and raw.flags.writeable)
            lo, hi = arr[:, 0], arr[:, 1]
            if arr.min() < 0 or arr.max() >= vertex_count:
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
        arr.setflags(write=False)
        self.vertex_count = vertex_count
        self._edges = arr

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
    subtrees share rows; every row is checked to be a permutation."""

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
            which = np.array(which)
            if which.shape != (1 << (n - d),) or which.dtype.kind not in "iu" or not (
                0 <= which.min() <= which.max() < len(phis)
            ):
                raise ValueError(f"tree level {d} needs a row index per block")
            which.setflags(write=False)
            levels.append((phis, which))
        object.__setattr__(self, "levels", tuple(levels))

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
    equal dimension with the matching v -> phi[v] + half."""

    def __new__(cls, left: ConstructionTree, right: ConstructionTree, phi) -> ConstructionTree:
        if left.dimension != right.dimension:
            raise ValueError("left and right subtrees must have equal dimension")
        levels = [
            (np.concatenate([lp, rp]), np.concatenate([lw, rw.astype(np.intp) + len(lp)]))
            for (lp, lw), (rp, rw) in zip(left.levels, right.levels)
        ]
        levels.append(([phi], [0]))
        return ConstructionTree(left.dimension + 1, tuple(levels))


@dataclass(frozen=True)
class BcGraph:
    """A materialized BC graph together with its construction witness.

    Plain container; use validate() to check the invariants (n-regularity,
    2**n vertices, witness agreement).
    """

    dimension: int
    graph: Graph
    tree: ConstructionTree


def level_rows(tree: ConstructionTree) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (d, u, v) for the levels d = n..1 of a construction tree: the
    level-d matching edges as two (blocks, 2**(d-1)) int64 arrays, u = base + x
    and v = base + half + phi[x] in the block at base. A level's rows are
    read from its phi array through its block index."""
    n = tree.dimension
    for d in range(n, 0, -1):
        half = 1 << (d - 1)
        base = (np.arange(1 << (n - d), dtype=np.int64) << d)[:, None]
        if d > 1:
            phis, which = tree.levels[d - 2]
            v = phis[which] + (base + half)
        else:  # a leaf is the edge (0, 1): one-vertex halves joined by phi = (0,)
            v = base + half
        yield d, base + np.arange(half), v


def _canonical_levels(tree: ConstructionTree):
    """`level_rows` with the canonical edge rows each level fills: u's rows
    follow the n - popcount(w) upper neighbours of every w < u, its level-d
    row one per zero bit of u below bit d-1 (see the module docstring)."""
    n = tree.dimension
    upper = n - np.bitwise_count(np.arange(1 << n)).astype(np.int64)
    first = np.cumsum(upper) - upper
    for d, u, v in level_rows(tree):
        yield d, first[u] + (d - 1 - np.bitwise_count(np.arange(1 << (d - 1)))), u, v


def materialize(tree: ConstructionTree) -> Graph:
    """Build the concrete graph described by a construction tree.

    Writes each level's rows into their canonical slots, so Graph finds the
    rows sorted. Raises DimensionCapError above MAX_DIMENSION_CAP; a smaller
    cap is the caller's.
    """
    n = tree.dimension
    if n > MAX_DIMENSION_CAP:
        raise DimensionCapError(f"dimension {n} exceeds the ceiling {MAX_DIMENSION_CAP}")
    edges = np.empty((n << (n - 1), 2), dtype=np.int64)
    for _, rows, u, v in _canonical_levels(tree):
        edges[rows, 0] = u
        edges[rows, 1] = v
    edges.setflags(write=False)  # so Graph adopts it without a copy
    return Graph(1 << n, edges)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate(bc: BcGraph) -> ValidationReport:
    """Check every BcGraph invariant; violations are reported, not raised.
    The edges are compared with the tree's matchings level by level from the
    top, and the first level and block that differ are named."""
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
    # with these sizes the tree's levels fill exactly the canonical edge rows
    sized = not violations
    differ = None
    edges = bc.graph.edge_array
    for d, rows, u, v in _canonical_levels(bc.tree) if sized else ():
        wrong = ((edges[rows, 0] != u) | (edges[rows, 1] != v)).any(axis=1)
        if wrong.any():
            b = int(np.argmax(wrong))
            differ = (
                "graph edges differ from those generated by the construction tree: "
                f"level {d}, block {b} (vertices {b << d}..{(b + 1 << d) - 1})"
            )
            break
    # when every level matches, the graph is the tree's graph: n-regular
    if not sized or differ is not None:
        degrees = bc.graph.degrees()
        bad = np.flatnonzero(degrees != n)
        if bad.size:
            sample = ", ".join(
                f"vertex {int(v)} has degree {int(degrees[v])}" for v in bad[:8]
            )
            more = "" if bad.size <= 8 else f" (and {bad.size - 8} more)"
            violations.append(f"not {n}-regular: {sample}{more}")
    if differ is not None:
        violations.append(differ)
    return ValidationReport(not violations, tuple(violations))
