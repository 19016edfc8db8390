"""Constructors for canonical BC-graph families and seeded random members.

Every constructor returns a BcGraph whose construction tree fully witnesses
how it was built; `build_tree` returns the tree alone. Random members draw
one uniform permutation per tree node from a pinned SplitMix64 stream, so a
(dimension, seed) pair is reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BcGraph,
    ConstructionTree,
    DEFAULT_DIMENSION_CAP,
    Leaf,
    Node,
    _check_cap,
    materialize,
)
from .rng import SplitMix64, bounded_draws, check_seed, shuffle_rows

KINDS = ("hypercube", "locally-twisted", "mobius-0", "mobius-1", "random")

_LEAF = Leaf()


@dataclass(frozen=True)
class FamilySpec:
    """A family choice: which constructor, the dimension, and (for the
    random family) the 64-bit seed."""

    kind: str
    dimension: int
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "random":
            if self.seed is None:
                raise ValueError("the random family requires a seed")
        elif self.seed is not None:
            raise ValueError(f"family {self.kind!r} does not take a seed")


def hypercube(n: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """The n-dimensional hypercube: identity bijection at every tree node,
    so adjacency is exactly single-bit-flip on the vertex ids."""
    return build(FamilySpec("hypercube", n), cap=cap)


def locally_twisted(n: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """The locally twisted cube.

    Dimension 2 joins with the identity; dimension d >= 3 joins with
    phi(x) = x with bit (d-2) flipped whenever bit 0 of x is set.
    """
    return build(FamilySpec("locally-twisted", n), cap=cap)


def mobius(n: int, variant: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Mobius cube, variant 0 or 1.

    Both variants share the recursive shape (left subtree variant 0, right
    subtree variant 1); variant 0 joins with the identity, variant 1 with
    the bitwise complement phi(x) = 2**(d-1) - 1 - x. Dimension 1 is the
    plain edge for both.
    """
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    return build(FamilySpec(f"mobius-{int(variant)}", n), cap=cap)


def random_bc(n: int, seed: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Uniformly random member of the dimension-n BC family.

    Every tree node independently draws a uniform permutation. The stream
    order is pinned (left subtree, right subtree, then the node's own
    permutation), so equal (n, seed) always yields an identical graph.
    The draws are made a level at a time from the stream's counter; if any
    of them is rejected, the tree is drawn again through the scalar stream.
    """
    return build(FamilySpec("random", n, seed), cap=cap)


def build(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Construct the BcGraph a FamilySpec describes."""
    tree = build_tree(spec, cap=cap)
    return BcGraph(spec.dimension, materialize(tree), tree)


def build_tree(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstructionTree:
    """The construction tree a FamilySpec describes, without its edges.
    The cap and the seed are checked before any tree node is made."""
    n = spec.dimension
    seed = check_spec(spec, cap=cap)
    if spec.kind == "random":
        drawn = _random_tree_by_level(n, seed)
        return _random_tree(n, SplitMix64(seed)) if drawn is None else drawn
    if spec.kind in ("mobius-0", "mobius-1"):
        return _mobius_tree(n, int(spec.kind[-1]))
    # hypercube and locally twisted cube: one shared subtree per level
    tree: ConstructionTree = _LEAF
    for d in range(2, n + 1):
        phi = range(1 << (d - 1))
        if spec.kind == "locally-twisted" and d > 2:
            phi = (x ^ (1 << (d - 2)) if x & 1 else x for x in phi)
        tree = Node(tree, tree, tuple(phi))
    return tree


def check_spec(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> int | None:
    """The checks `build_tree` makes first: the cap, then a random member's
    seed, which is returned as an int (None for the other kinds)."""
    _check_cap(spec.dimension, cap)
    return check_seed(spec.seed) if spec.kind == "random" else None


def _mobius_tree(n: int, variant: int) -> ConstructionTree:
    # zero and one are the variant-0 and variant-1 trees of dimension d - 1;
    # both variants of dimension d join them, and only the requested variant
    # is built at the top.
    zero = one = _LEAF
    for d in range(2, n + 1):
        half = 1 << (d - 1)
        phis = (range(half), range(half - 1, -1, -1))
        if d == n:
            return Node(zero, one, tuple(phis[variant]))
        zero, one = Node(zero, one, tuple(phis[0])), Node(zero, one, tuple(phis[1]))
    return _LEAF


def _random_tree(d: int, rng: SplitMix64) -> ConstructionTree:
    if d == 1:
        return _LEAF
    left = _random_tree(d - 1, rng)
    right = _random_tree(d - 1, rng)
    return Node(left, right, rng.permutation(1 << (d - 1)))


def _random_tree_by_level(n: int, seed: int) -> ConstructionTree | None:
    """`_random_tree(n, SplitMix64(seed))` built bottom-up, with each level's
    draws made together; None when one of them would be rejected."""
    level: list = [_LEAF] * (1 << (n - 1))
    for d in range(2, n + 1):
        size = 1 << (d - 1)
        counters = _first_counters(n, d)[:, None] + np.arange(size - 1)
        draws, rejected = bounded_draws(seed, counters, np.arange(size, 1, -1))
        if rejected:
            return None
        kids = iter(level)
        phis = shuffle_rows(draws)
        level = [Node(left, right, phi) for left, right, phi in zip(kids, kids, phis)]
    return level[0]


def _first_counters(n: int, d: int) -> np.ndarray:
    """Stream counter of the first draw of each level-d node, in post-order.

    A dimension-e subtree makes D(e) = (e - 2) * 2**(e - 1) + 1 draws. Node
    i's subtree starts at vertex i * 2**d, so the subtrees drawn before it
    are the binary decomposition of i * 2**d, and its own draws follow its
    two children's: first = 1 + 2 * D(d - 1) + the sum of D(e) over the set
    bits e of i * 2**d.
    """
    v = np.arange(1 << (n - d), dtype=np.int64) << d
    first = np.full_like(v, 1 + 2 * ((d - 3) * (1 << (d - 2)) + 1))
    for e in range(d, n):
        first += ((v >> e) & 1) * ((e - 2) * (1 << (e - 1)) + 1)
    return first
