"""Constructors for canonical BC-graph families and seeded random members.

Every constructor returns a BcGraph whose construction tree fully witnesses
how it was built; `build_tree` returns the tree alone, one row array per
level: one shared row (two for the Mobius cubes) or, for a random member,
one uniform permutation per block, drawn a level at a time from a pinned
SplitMix64 stream, so a (dimension, seed) pair is reproducible anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BcGraph,
    ConstructionTree,
    DEFAULT_DIMENSION_CAP,
    _check_cap,
    materialize,
)
from .rng import bounded_draws, check_seed, shuffle_rows

KINDS = ("hypercube", "locally-twisted", "mobius-0", "mobius-1", "random")


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


def hypercube(n: int) -> BcGraph:
    """The n-dimensional hypercube: identity bijection at every tree node,
    so adjacency is exactly single-bit-flip on the vertex ids."""
    return build(FamilySpec("hypercube", n))


def locally_twisted(n: int) -> BcGraph:
    """The locally twisted cube.

    Dimension 2 joins with the identity; dimension d >= 3 joins with
    phi(x) = x with bit (d-2) flipped whenever bit 0 of x is set.
    """
    return build(FamilySpec("locally-twisted", n))


def mobius(n: int, variant: int) -> BcGraph:
    """Mobius cube, variant 0 or 1.

    Both variants share the recursive shape (left subtree variant 0, right
    subtree variant 1); variant 0 joins with the identity, variant 1 with
    the bitwise complement phi(x) = 2**(d-1) - 1 - x. Dimension 1 is the
    plain edge for both.
    """
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    return build(FamilySpec(f"mobius-{int(variant)}", n))


def random_bc(n: int, seed: int) -> BcGraph:
    """Uniformly random member of the dimension-n BC family.

    Every tree node independently draws a uniform permutation. The stream
    order is pinned (left subtree, right subtree, then the node's own
    permutation), so equal (n, seed) always yields an identical graph.
    The draws are made a level at a time from the stream's counter, and a
    rejected draw delays every later one, as it does in the scalar stream.
    """
    return build(FamilySpec("random", n, seed))


def build(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> BcGraph:
    """Construct the BcGraph a FamilySpec describes."""
    tree = build_tree(spec, cap=cap)
    return BcGraph(spec.dimension, materialize(tree), tree)


def build_tree(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstructionTree:
    """The construction tree a FamilySpec describes, without its edges.
    The cap and the seed are checked before any level is made."""
    n = spec.dimension
    seed = check_spec(spec, cap=cap)
    if spec.kind == "random":
        return ConstructionTree._adopt(n, _random_levels(n, seed))
    levels = []
    for d in range(2, n + 1):
        x = np.arange(1 << (d - 1), dtype=np.int32)
        which = np.zeros(1 << (n - d), dtype=np.int8)
        if spec.kind == "locally-twisted" and d > 2:
            x ^= (x & 1) << (d - 2)
        if spec.kind.startswith("mobius") and d < n:
            # variant 0 (identity) left of every join, variant 1 (complement) right
            rows, which[1::2] = [x, x[::-1]], 1
        else:
            rows = [x[::-1] if spec.kind == "mobius-1" else x]
        levels.append((np.array(rows), which))
    return ConstructionTree._adopt(n, levels)


def check_spec(spec: FamilySpec, *, cap: int = DEFAULT_DIMENSION_CAP) -> int | None:
    """The checks `build_tree` makes first: the cap, then a random member's
    seed, which is returned as an int (None for the other kinds)."""
    _check_cap(spec.dimension, cap)
    return check_seed(spec.seed) if spec.kind == "random" else None


def _random_levels(n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The levels of a random member, one row per block, each level drawn at
    once from the stream's counters (`_first_counters`). A rejected draw is
    redrawn from the next counter, delaying every later one; so a pass shifts
    the counters by the rejections known so far, and one that meets a new
    rejection records the earliest and starts again (rare: almost never)."""
    owners = np.empty(0, dtype=np.int64)  # the nominal draw of each rejection
    while True:
        levels, rejects = [], []
        for d in range(2, n + 1):
            size = 1 << (d - 1)
            nominal = _first_counters(n, d)[:, None] + np.arange(size - 1)
            counters = nominal + np.searchsorted(owners, nominal, "right") if owners.size else nominal
            draws, rejected = bounded_draws(seed, counters, np.arange(size, 1, -1))
            rejects += nominal[rejected].tolist()
            levels.append((shuffle_rows(draws), np.arange(len(draws))))
        if not rejects:
            return levels
        owners = np.sort(np.append(owners, min(rejects)))


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
