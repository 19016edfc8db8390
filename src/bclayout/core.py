"""Graph values, construction trees, and the bijective-connection composition.

A bijective-connection (BC) graph of dimension n is built recursively: the
dimension-1 graph is a single edge, and a dimension-n graph joins two
dimension-(n-1) graphs by a perfect matching induced by a bijection ``phi``
between their vertex sets. Every graph produced here carries its
construction tree as an explicit witness.

Vertex id convention: a left-subtree vertex keeps its local id, a
right-subtree vertex is shifted by half the vertex count, so the top bit
distinguishes the halves at every recursion level and the all-identity tree
materializes to the bit-flip hypercube.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

DEFAULT_DIMENSION_CAP = 25
# Hard ceiling on the configurable cap: with n <= 26 every edge-span sum is
# below n * 2**(n-1) * 2**n < 2**58, so int64 accumulation stays exact.
MAX_DIMENSION_CAP = 26


class DimensionCapError(ValueError):
    """Materializing this dimension would exceed the configured cap."""


def check_permutation(values, size: int) -> tuple[int, ...]:
    """Return `values` as a tuple of Python ints when it is a permutation of
    0..size-1; raise ValueError otherwise, including for bool, float and
    other non-integer entries.

    A plain loop, not numpy: a random tree of dimension n checks 2**(n-1) - 1
    permutations, most of 2 to 8 elements, where numpy's per-call overhead
    costs more than the loop.
    """
    if bool in map(type, values):
        raise ValueError("permutation entries must be integers, not bool")
    try:
        # operator.index returns an exact int as the same object
        phi = tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"permutation entries must be integers: {exc}") from exc
    if len(phi) != size:
        raise ValueError(f"expected a permutation of {size} elements, got {len(phi)}")
    seen = bytearray(size)
    for x in phi:
        if not 0 <= x < size:
            raise ValueError(f"permutation value {x} out of range 0..{size - 1}")
        if seen[x]:
            raise ValueError(f"permutation repeats value {x}")
        seen[x] = 1
    return phi


def _check_cap(dimension: int, cap: int) -> None:
    if not 1 <= cap <= MAX_DIMENSION_CAP:
        raise ValueError(f"cap must be in 1..{MAX_DIMENSION_CAP}")
    if dimension > cap:
        raise DimensionCapError(
            f"dimension {dimension} exceeds the materialization cap {cap}"
        )


class Graph:
    """Immutable undirected graph on vertex ids 0..N-1.

    Edges are held as a read-only (M, 2) int64 array with u < v in each row,
    rows sorted lexicographically. No self-loops, no duplicates. Adjacency
    sets are derived lazily; avoid them for very large graphs.
    """

    __slots__ = ("vertex_count", "_edges", "_adjacency")

    def __init__(self, vertex_count: int, edges=()):
        vertex_count = operator.index(vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        if isinstance(edges, np.ndarray):
            raw = edges
        else:
            raw = np.array(list(edges))
        if raw.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        else:
            if raw.ndim != 2 or raw.shape[1] != 2:
                raise ValueError("edges must be pairs of vertex ids")
            if not np.issubdtype(raw.dtype, np.integer):
                raise ValueError("edge endpoints must be integers")
            arr = raw.astype(np.int64, copy=True)
        if arr.shape[0]:
            lo = arr.min(axis=1)
            hi = arr.max(axis=1)
            if lo.min() < 0 or hi.max() >= vertex_count:
                raise ValueError("edge endpoint out of range")
            if (lo == hi).any():
                raise ValueError("self-loops are not allowed")
            arr = np.column_stack([lo, hi])
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            if arr.shape[0] > 1 and (arr[1:] == arr[:-1]).all(axis=1).any():
                raise ValueError("duplicate edges are not allowed")
        arr.setflags(write=False)
        self.vertex_count = vertex_count
        self._edges = arr
        self._adjacency = None

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

    def edge_set(self) -> set[tuple[int, int]]:
        """Edges as a set of (u, v) tuples with u < v. O(M) memory."""
        return set(map(tuple, self._edges.tolist()))

    def degrees(self) -> np.ndarray:
        return np.bincount(self._edges.ravel(), minlength=self.vertex_count)

    def adjacency(self) -> tuple[frozenset, ...]:
        """Per-vertex neighbor sets. Built on first use and cached."""
        if self._adjacency is None:
            neigh = [set() for _ in range(self.vertex_count)]
            for u, v in self.iter_edges():
                neigh[u].add(v)
                neigh[v].add(u)
            self._adjacency = tuple(frozenset(s) for s in neigh)
        return self._adjacency

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


@dataclass(frozen=True)
class Leaf:
    """Construction-tree base case: the single-edge graph on two vertices."""

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class Node:
    """Inner construction-tree node joining two equal-dimension subtrees.

    `phi` maps left-subtree local ids to right-subtree local ids; the
    materialized graph gains the matching edge (v, phi[v] + half) for every v.
    """

    left: "ConstructionTree"
    right: "ConstructionTree"
    phi: tuple[int, ...]
    dimension: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.left.dimension != self.right.dimension:
            raise ValueError("left and right subtrees must have equal dimension")
        phi = check_permutation(self.phi, 1 << self.left.dimension)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "dimension", self.left.dimension + 1)

    def __repr__(self) -> str:
        return f"Node(dimension={self.dimension})"


ConstructionTree = Union[Leaf, Node]


@dataclass(frozen=True)
class BcGraph:
    """A materialized BC graph together with its construction witness.

    Plain container; use validate() to check the invariants (n-regularity,
    2**n vertices, witness agreement).
    """

    dimension: int
    graph: Graph
    tree: ConstructionTree


def materialize(tree: ConstructionTree, *, cap: int = DEFAULT_DIMENSION_CAP) -> Graph:
    """Build the concrete graph described by a construction tree."""
    _check_cap(tree.dimension, cap)
    edges = _materialize_edges(tree, {})
    return Graph(1 << tree.dimension, edges)


def _materialize_edges(tree: ConstructionTree, memo: dict) -> np.ndarray:
    # memo keyed by object identity: shared subtrees are materialized once
    key = id(tree)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(tree, Leaf):
        out = np.array([[0, 1]], dtype=np.int64)
    else:
        half = 1 << tree.left.dimension
        left = _materialize_edges(tree.left, memo)
        right = _materialize_edges(tree.right, memo) + half
        cross = np.empty((half, 2), dtype=np.int64)
        cross[:, 0] = np.arange(half)
        cross[:, 1] = np.asarray(tree.phi, dtype=np.int64) + half
        out = np.concatenate([left, right, cross])
    memo[key] = out
    return out


def compose(g1: BcGraph, g2: BcGraph, phi) -> BcGraph:
    """Join two equal-dimension BC graphs with the matching v -> phi[v].

    The result keeps g1's vertex ids, shifts g2's by half, and adds the
    matching edges (v, phi[v] + half).
    """
    if g1.dimension != g2.dimension:
        raise ValueError(
            f"cannot compose dimensions {g1.dimension} and {g2.dimension}"
        )
    tree = Node(g1.tree, g2.tree, tuple(phi))
    half = 1 << g1.dimension
    cross = np.empty((half, 2), dtype=np.int64)
    cross[:, 0] = np.arange(half)
    cross[:, 1] = np.asarray(tree.phi, dtype=np.int64) + half
    edges = np.concatenate(
        [g1.graph.edge_array, g2.graph.edge_array + half, cross]
    )
    return BcGraph(g1.dimension + 1, Graph(2 * half, edges), tree)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate(bc: BcGraph) -> ValidationReport:
    """Check every BcGraph invariant; violations are reported, not raised."""
    violations: list[str] = []
    n = bc.dimension
    if n < 1:
        violations.append(f"dimension {n} is not positive")
        return ValidationReport(False, tuple(violations))
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
    degrees = bc.graph.degrees()
    bad = np.flatnonzero(degrees != n)
    if bad.size:
        sample = ", ".join(
            f"vertex {int(v)} has degree {int(degrees[v])}" for v in bad[:8]
        )
        more = "" if bad.size <= 8 else f" (and {bad.size - 8} more)"
        violations.append(f"not {n}-regular: {sample}{more}")
    if bc.tree.dimension == n:
        if n <= MAX_DIMENSION_CAP:
            rebuilt = materialize(bc.tree, cap=n)
            if rebuilt != bc.graph:
                violations.append(
                    "graph edges differ from those generated by the construction tree"
                )
        else:
            violations.append(
                f"dimension {n} is too large to re-materialize the witness"
            )
    return ValidationReport(not violations, tuple(violations))
