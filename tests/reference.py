"""Independent references for tests: construction trees as nested
(left, right, phi) tuples, with None for the dimension-1 leaf, their edges
by the construction's recursion, random trees by the scalar stream, the
seed that makes a chosen SplitMix64 draw, the per-size subset extremes by a
plain loop over every subset, and the plain depth-first branch-and-bound
that the memoized solver must replay."""

import time

from bclayout import ConstructionTree, LinearArrangement, Node, SplitMix64, arrangement_cost
from bclayout.layout import _BudgetExhausted
from bclayout.rng import _GAMMA, _MIX1, _MIX2

MASK = (1 << 64) - 1

LEAF = ConstructionTree(1)


def build(nested):
    """The library tree of a nested tree."""
    if nested is None:
        return LEAF
    left, right, phi = nested
    return Node(build(left), build(right), phi)


def recursive_edges(nested):
    """The construction's recursion, written out directly on a nested tree."""
    if nested is None:
        return [(0, 1)]
    left, right, phi = nested
    half = len(phi)
    shifted = [(u + half, v + half) for u, v in recursive_edges(right)]
    cross = [(x, half + y) for x, y in enumerate(phi)]
    return recursive_edges(left) + shifted + cross


def scalar_tree(n, seed):
    """The random member's tree drawn one permutation at a time from the
    scalar stream: left subtree, right subtree, then the node's own."""
    rng = SplitMix64(seed)

    def draw(d):
        if d == 1:
            return None
        left = draw(d - 1)
        right = draw(d - 1)
        return (left, right, rng.permutation(1 << (d - 1)))

    return draw(n)


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def seed_drawing(z, k):
    """The seed whose draw k of SplitMix64 (the first is k = 1) is z: the
    finalizer run backwards gives the state, less k steps of the counter."""
    z = _unxorshift(z, 31) * pow(_MIX2, -1, 1 << 64) & MASK
    z = _unxorshift(z, 27) * pow(_MIX1, -1, 1 << 64) & MASK
    return (_unxorshift(z, 30) - k * _GAMMA) & MASK


def best_by_size(graph, boundary):
    """Most induced edges, or with `boundary` least edge boundary, of the
    subsets of each size 0..N: every subset's edges counted from the
    adjacency masks of its members."""
    n = graph.vertex_count
    masks = graph.adjacency_masks()
    best = [None] * (n + 1)
    for subset in range(1 << n):
        members = [v for v in range(n) if subset >> v & 1]
        if boundary:
            value = sum((masks[v] & ~subset).bit_count() for v in members)
        else:
            value = sum((masks[v] & subset).bit_count() for v in members) // 2
        m = len(members)
        if best[m] is None or (value < best[m] if boundary else value > best[m]):
            best[m] = value
    return best


def _solve_branch_and_bound(graph, incumbent, budget_seconds):
    n = graph.vertex_count
    masks = graph.adjacency_masks()
    degrees = graph.degrees().tolist()
    boundary_min = best_by_size(graph, boundary=True)
    # rest[k]: least possible crossing total of cuts k+1..n-1, any completion
    rest = [0] * (n + 1)
    for k in range(n - 2, -1, -1):
        rest[k] = rest[k + 1] + boundary_min[k + 1]
    best_cost = arrangement_cost(graph, incumbent)
    best_positions = incumbent.to_list()
    anchor_limit = (n + 1) // 2  # mirror-canonical: vertex 0 in the first half
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    nodes = 0
    order: list[int] = []  # order[k] is the vertex placed at position k+1
    vertices = [(v, 1 << v, degrees[v], masks[v]) for v in range(n)]

    def search(placed: int, k: int, cut_sum: int, boundary: int) -> None:
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
        for v, bit, degree, mask in vertices:
            if placed & bit:
                continue
            next_boundary = boundary + degree - 2 * (mask & placed).bit_count()
            next_cut_sum = cut_sum + next_boundary
            if next_cut_sum + tail >= best_cost:
                continue
            order.append(v)
            search(placed | bit, k + 1, next_cut_sum, next_boundary)
            order.pop()

    try:
        search(0, 0, 0, 0)
        proven = True
    except _BudgetExhausted:
        proven = False
    return best_cost, LinearArrangement(best_positions), proven, nodes
