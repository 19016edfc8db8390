"""Edge-isoperimetric profile of BC graphs: closed forms and subset oracles.

For every BC graph of dimension n the maximum number of edges induced by an
m-vertex subset depends only on m. Writing m = sum of 2**l_i with strictly
decreasing exponents l_0 > l_1 > ... > l_{r-1}, that maximum is

    max_induced_edges(m) = sum_i (l_i * 2**(l_i - 1) + i * 2**l_i)

and the minimum edge boundary over m-subsets follows from the degree sum:
edge_boundary(n, m) = n*m - 2*max_induced_edges(m). All closed forms use
exact integer arithmetic.

The brute-force functions realize the same quantities by exhaustive subset
enumeration on a concrete graph; they are the independent check for the
closed forms and work on any graph within the enumeration limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph

ENUMERATION_LIMIT = 24


class EnumerationLimitError(ValueError):
    """Graph is too large for exhaustive subset enumeration."""


@dataclass(frozen=True)
class BinaryDecomposition:
    """Strictly decreasing exponents of the base-2 expansion of an integer."""

    exponents: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.exponents)

    def value(self) -> int:
        return sum(1 << l for l in self.exponents)


def binary_decomposition(m: int) -> BinaryDecomposition:
    if m < 1:
        raise ValueError("m must be positive")
    exps = tuple(i for i in range(m.bit_length() - 1, -1, -1) if (m >> i) & 1)
    return BinaryDecomposition(exps)


def max_induced_edges(m: int) -> int:
    """Most edges any m-vertex subset of a (large enough) BC graph induces."""
    total = 0
    for i, l in enumerate(binary_decomposition(m).exponents):
        # (l << l) >> 1 == l * 2**(l-1), exact for every l >= 0
        total += ((l << l) >> 1) + (i << l)
    return total


def edge_boundary(n: int, m: int) -> int:
    """Least edge boundary of an m-vertex subset in a dimension-n BC graph."""
    _check_boundary_args(n, m)
    return n * m - 2 * max_induced_edges(m)


def edge_boundary_expanded(n: int, m: int) -> int:
    """Same quantity as edge_boundary, summed term by term over the
    binary decomposition: sum_i (n - l_i - 2i) * 2**l_i. Cross-check form."""
    _check_boundary_args(n, m)
    return sum(
        (n - l - 2 * i) * (1 << l)
        for i, l in enumerate(binary_decomposition(m).exponents)
    )


def _check_boundary_args(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("dimension must be positive")
    if not 1 <= m <= (1 << n):
        raise ValueError(f"m must be in 1..2**{n}, got {m}")


def sum_edge_boundary(n: int) -> int:
    """Total of edge_boundary(n, m) over all m = 1..2**n - 1.

    Evaluates the closed form 2**(n-1) * (2**n - 1) exactly. That the
    per-m values sum to it is checked by the `arithmetic-identities`
    verification suite for n <= 16 and by the tests, not on each call.
    """
    if not 1 <= n <= 63:
        raise ValueError("n must be in 1..63")
    return (1 << (n - 1)) * ((1 << n) - 1)


@dataclass(frozen=True)
class SubsetWitness:
    """A concrete vertex subset together with its exact edge counts."""

    vertices: tuple[int, ...]
    induced_edge_count: int
    boundary_edge_count: int


def brute_force_max_induced(graph: Graph, m: int) -> SubsetWitness:
    """Exhaustive search for an m-subset inducing the most edges."""
    _check_subset_args(graph, m)
    induced, _, pop = _subset_tables(graph)
    sel = np.flatnonzero(pop == m)
    best = int(sel[np.argmax(induced[sel])])
    return _witness(graph, best)


def brute_force_min_boundary(graph: Graph, m: int) -> SubsetWitness:
    """Exhaustive search for an m-subset with the smallest edge boundary."""
    _check_subset_args(graph, m)
    induced, degsum, pop = _subset_tables(graph)
    boundary = degsum - 2 * induced
    sel = np.flatnonzero(pop == m)
    best = int(sel[np.argmin(boundary[sel])])
    return _witness(graph, best)


def brute_force_tables(graph: Graph) -> tuple[list[int], list[int]]:
    """Exact (max induced edges, min edge boundary) for every size 0..N.

    One pass over all 2**N subsets fills both tables simultaneously.
    """
    induced, degsum, pop = _subset_tables(graph)
    boundary = degsum - 2 * induced
    induced_max: list[int] = []
    boundary_min: list[int] = []
    for m in range(graph.vertex_count + 1):
        sel = pop == m
        induced_max.append(int(induced[sel].max()))
        boundary_min.append(int(boundary[sel].min()))
    return induced_max, boundary_min


def _check_enumerable(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"graph with {n} vertices exceeds the "
            f"{ENUMERATION_LIMIT}-vertex enumeration limit"
        )


def _check_subset_args(graph: Graph, m: int) -> None:
    _check_enumerable(graph.vertex_count)
    if not 1 <= m <= graph.vertex_count:
        raise ValueError(f"subset size must be in 1..{graph.vertex_count}")


def _subset_tables(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Induced-edge count, degree sum, and popcount for every vertex subset.

    Subsets are encoded as bitmasks 0..2**N-1 and processed in one pass with
    the recurrence I(S) = I(S - v) + |adj(v) & (S - v)| for v the lowest bit.
    """
    n = graph.vertex_count
    _check_enumerable(n)
    masks = np.array(graph.adjacency_masks(), dtype=np.uint32)
    degrees = graph.degrees().astype(np.int32)
    size = 1 << n
    induced = np.zeros(size, dtype=np.int32)
    degsum = np.zeros(size, dtype=np.int32)
    pop = np.zeros(size, dtype=np.uint8)
    # Descending v keeps the dependency order: every `rest` index has its
    # lowest set bit above v, so it was filled by an earlier iteration.
    for v in range(n - 1, -1, -1):
        bit = 1 << v
        rest = np.arange(0, size, bit << 1, dtype=np.uint32)
        with_v = rest | np.uint32(bit)
        induced[with_v] = induced[rest] + np.bitwise_count(masks[v] & rest).astype(np.int32)
        degsum[with_v] = degsum[rest] + degrees[v]
        pop[with_v] = pop[rest] + np.uint8(1)
    return induced, degsum, pop


def _witness(graph: Graph, subset_mask: int) -> SubsetWitness:
    vertices = tuple(v for v in range(graph.vertex_count) if (subset_mask >> v) & 1)
    members = frozenset(vertices)
    induced = 0
    boundary = 0
    for u, v in graph.iter_edges():
        inside = (u in members) + (v in members)
        if inside == 2:
            induced += 1
        elif inside == 1:
            boundary += 1
    return SubsetWitness(vertices, induced, boundary)
