"""Constructors for canonical BC-graph families and seeded random members.

Every constructor returns a BcGraph whose construction tree fully witnesses
how it was built. Random members draw one uniform permutation per tree node
from a pinned SplitMix64 stream, so a (dimension, seed) pair is reproducible
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BcGraph,
    ConstructionTree,
    DEFAULT_DIMENSION_CAP,
    Leaf,
    Node,
    _check_cap,
    materialize,
)
from .rng import SplitMix64

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

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.kind, "n": self.dimension}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FamilySpec":
        if not isinstance(obj, dict):
            raise ValueError("family spec must be a JSON object")
        return cls(obj.get("family"), obj.get("n"), obj.get("seed"))


def _check_dimension(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    _check_cap(n, cap)


def hypercube(n: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """The n-dimensional hypercube: identity bijection at every tree node,
    so adjacency is exactly single-bit-flip on the vertex ids."""
    _check_dimension(n, cap)
    tree: ConstructionTree = _LEAF
    for d in range(2, n + 1):
        tree = Node(tree, tree, tuple(range(1 << (d - 1))))
    return BcGraph(n, materialize(tree, cap=cap), tree)


def locally_twisted(n: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """The locally twisted cube.

    Dimension 2 joins with the identity; dimension d >= 3 joins with
    phi(x) = x with bit (d-2) flipped whenever bit 0 of x is set.
    """
    _check_dimension(n, cap)
    tree: ConstructionTree = _LEAF
    for d in range(2, n + 1):
        half = 1 << (d - 1)
        if d == 2:
            phi = tuple(range(half))
        else:
            flip = 1 << (d - 2)
            phi = tuple(x ^ flip if x & 1 else x for x in range(half))
        tree = Node(tree, tree, phi)
    return BcGraph(n, materialize(tree, cap=cap), tree)


def mobius(n: int, variant: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Mobius cube, variant 0 or 1.

    Both variants share the recursive shape (left subtree variant 0, right
    subtree variant 1); variant 0 joins with the identity, variant 1 with
    the bitwise complement phi(x) = 2**(d-1) - 1 - x. Dimension 1 is the
    plain edge for both.
    """
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    _check_dimension(n, cap)
    tree = _mobius_tree(n, variant)
    return BcGraph(n, materialize(tree, cap=cap), tree)


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


def random_bc(n: int, seed: int, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Uniformly random member of the dimension-n BC family.

    Every tree node independently draws a uniform permutation. The stream
    order is pinned (left subtree, right subtree, then the node's own
    permutation), so equal (n, seed) always yields an identical graph.
    """
    _check_dimension(n, cap)
    rng = SplitMix64(seed)
    tree = _random_tree(n, rng)
    return BcGraph(n, materialize(tree, cap=cap), tree)


def _random_tree(d: int, rng: SplitMix64) -> ConstructionTree:
    if d == 1:
        return _LEAF
    left = _random_tree(d - 1, rng)
    right = _random_tree(d - 1, rng)
    return Node(left, right, rng.permutation(1 << (d - 1)))


def build(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Construct the BcGraph a FamilySpec describes."""
    if spec.kind == "hypercube":
        return hypercube(spec.dimension, cap=cap)
    if spec.kind == "locally-twisted":
        return locally_twisted(spec.dimension, cap=cap)
    if spec.kind == "mobius-0":
        return mobius(spec.dimension, 0, cap=cap)
    if spec.kind == "mobius-1":
        return mobius(spec.dimension, 1, cap=cap)
    return random_bc(spec.dimension, spec.seed, cap=cap)
