"""Independent references for tests: construction trees as nested
(left, right, phi) tuples, with None for the dimension-1 leaf, their edges
by the construction's recursion, and random trees by the scalar stream."""

from bclayout import ConstructionTree, Node, SplitMix64

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
