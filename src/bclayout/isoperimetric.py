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

import functools
from dataclasses import dataclass

import numpy as np

from .core import Graph

ENUMERATION_LIMIT = 24
# Row length of the subset lattice's (2**N / _ROW, _ROW) view.
_ROW = 1 << 16


class EnumerationLimitError(ValueError):
    """Graph is too large for exhaustive subset enumeration."""


def binary_decomposition(m: int) -> tuple[int, ...]:
    """Strictly decreasing exponents of the base-2 expansion of m >= 1."""
    if m < 1:
        raise ValueError("m must be positive")
    return tuple(i for i in range(m.bit_length() - 1, -1, -1) if (m >> i) & 1)


def max_induced_edges(m: int) -> int:
    """Most edges any m-vertex subset of a (large enough) BC graph induces."""
    total = 0
    for i, l in enumerate(binary_decomposition(m)):
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
        for i, l in enumerate(binary_decomposition(m))
    )


def _check_boundary_args(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("dimension must be positive")
    if m < 1 or (m - 1).bit_length() > n:  # m <= 2**n, with no 2**n built
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
    return _witness(graph, _first_best(_subset_table(graph, boundary=False), m, 1))


def brute_force_min_boundary(graph: Graph, m: int) -> SubsetWitness:
    """Exhaustive search for an m-subset with the smallest edge boundary."""
    _check_subset_args(graph, m)
    return _witness(graph, _first_best(_subset_table(graph, boundary=True), m, -1))


def brute_force_tables(graph: Graph) -> tuple[list[int], list[int]]:
    """Exact (max induced edges, min edge boundary) for every size 0..N."""
    return _best_by_size(graph, boundary=False), _best_by_size(graph, boundary=True)


def _best_by_size(graph: Graph, boundary: bool) -> list[int]:
    """Most induced edges, or with `boundary` least edge boundary, of the
    subsets of each size 0..N."""
    return _table_best_by_size(_subset_table(graph, boundary), graph.edge_count, boundary)


def _table_best_by_size(table: np.ndarray, edge_count: int, boundary: bool) -> list[int]:
    """`_best_by_size` of a `_subset_table` already built, whose values lie
    in 0..edge_count.

    Rows of the subset lattice are aligned, so a subset's size is its row's
    popcount r plus its column's c. The rows of each r are folded
    elementwise into one row (np.minimum for the boundary, np.maximum for
    induced edges), the folded row is reduced over the columns of each c,
    and the size r + c takes the extreme over its (r, c) pairs. One folded
    row at a time: the work beyond the table is a few rows.
    """
    cols = min(table.size, _ROW)
    order, bounds = _columns_by_popcount(cols)  # a first call sorts before `folded` exists
    rows = table.reshape(-1, cols)
    fold, empty = (np.minimum, edge_count + 1) if boundary else (np.maximum, -1)
    best = np.full(table.size.bit_length(), empty, dtype=table.dtype)
    folded = np.empty(cols, dtype=table.dtype)
    for r in range(rows.shape[0].bit_length()):
        folded.fill(empty)
        for i, row in enumerate(rows):
            if i.bit_count() == r:
                fold(folded, row, out=folded)
        sizes = best[r : r + len(bounds) - 1]
        fold(sizes, fold.reduceat(folded[order], bounds[:-1]), out=sizes)
    return best.tolist()


@functools.cache
def _columns_by_popcount(cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns 0..cols-1 by popcount, ascending within each popcount,
    and the bounds of the runs: the columns of popcount c are
    order[bounds[c]:bounds[c + 1]]. Read-only, as every caller shares them."""
    size = np.bitwise_count(np.arange(cols, dtype=np.uint32))
    order = np.argsort(size, kind="stable").astype(np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(size))))
    for a in (order, bounds):
        a.setflags(write=False)
    return order, bounds


def _first_best(table: np.ndarray, m: int, sign: int) -> int:
    """The lowest subset of size m at which sign * table is largest, found a
    row of the lattice at a time from the columns of the right popcount."""
    cols = min(table.size, _ROW)
    order, bounds = _columns_by_popcount(cols)
    best, best_value = -1, -np.inf
    for r, row in enumerate(table.reshape(-1, cols)):
        c = m - r.bit_count()
        if 0 <= c < len(bounds) - 1:
            sel = order[bounds[c] : bounds[c + 1]]
            values = sign * row[sel]
            i = int(values.argmax())
            if values[i] > best_value:
                best, best_value = r * cols + int(sel[i]), values[i]
    return best


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


def _subset_table(graph: Graph, boundary: bool) -> np.ndarray:
    """Induced-edge count, or with `boundary` edge boundary, of every subset.

    Subsets are bitmasks 0..2**N-1, and entry S of the int16 table holds
    S's value (at most the edge count, 276 at 24 vertices). The subsets
    containing v are those of bits 0..v-1 with v added, so step v fills the
    upper half [h, 2h), h = 2**v, from the lower half in place:
    I(S + v) = I(S) + |adj(v) & S| and B(S + v) = B(S) + deg(v) - 2|adj(v) & S|.
    Viewed as rows of at most _ROW subsets, |adj(v) & S| is the popcount of
    the column's bits plus that of the row's, so no step allocates more
    than one row.
    """
    n = graph.vertex_count
    _check_enumerable(n)
    masks = graph.adjacency_masks()
    degrees = graph.degrees().tolist()
    size = 1 << n
    table = np.zeros(size, dtype=np.int16)
    index = np.arange(min(size, _ROW), dtype=np.uint32)
    for v in range(n):
        h = 1 << v
        cols = min(h, _ROW)
        mask = masks[v] & (h - 1)
        col_step = np.bitwise_count(index[:cols] & (mask % cols)).astype(np.int16)
        row_step = np.bitwise_count(index[:h // cols] & (mask // cols)).astype(np.int16)[:, None]
        if boundary:
            col_step, row_step = degrees[v] - 2 * col_step, -2 * row_step
        upper = table[h:2 * h].reshape(-1, cols)
        np.add(table[:h].reshape(-1, cols), col_step, out=upper)
        if h > cols:
            upper += row_step
    return table


def _witness(graph: Graph, subset_mask: int) -> SubsetWitness:
    vertices = tuple(v for v in range(graph.vertex_count) if (subset_mask >> v) & 1)
    members = frozenset(vertices)
    inside = [(u in members) + (v in members) for u, v in graph.iter_edges()]
    return SubsetWitness(vertices, inside.count(2), inside.count(1))
