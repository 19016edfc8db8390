"""Pinned deterministic randomness for reproducible fixtures.

Seeded graphs, permutations, and arrangements must be bit-identical across
platforms and interpreter versions, so this module implements its own
generator instead of relying on ``random``: SplitMix64 (a 64-bit
counter-based generator with a bijective output mix), bounded draws by
rejection sampling, and a Fisher-Yates shuffle walking indices downward.

Draw k of a stream (the first is k = 1) mixes the state seed + k*gamma mod
2**64, so any set of draws can also be made at once in numpy uint64
(`bounded_draws`, applied by `shuffle_rows`); a draw the scalar path would
reject is reported, since the scalar stream then skips ahead.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# shuffle_rows shuffles at least this many permutations one index at a time
# across all of them in numpy, and fewer, larger ones in a list loop each,
# converting this many draws at a time to Python ints.
_BATCH_ROWS = 64
_CHUNK = 4096


def check_seed(seed) -> int:
    """Return `seed` as an int when it is an unsigned 64-bit integer; raise
    ValueError otherwise, including for bool and float seeds."""
    if isinstance(seed, bool):
        raise ValueError("seed must be an integer, not bool")
    try:
        seed = operator.index(seed)
    except TypeError as exc:
        raise ValueError(f"seed must be an integer: {exc}") from exc
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


class SplitMix64:
    """SplitMix64 stream. Same seed, same platform-independent sequence."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        # Accept only draws below the largest multiple of `bound` that fits.
        limit = ((_MASK64 + 1) // bound) * bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, size: int) -> tuple[int, ...]:
        """Uniform random permutation of 0..size-1."""
        items = list(range(size))
        self.shuffle(items)
        return tuple(items)


def bounded_draws(seed: int, counters, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Draw number k of SplitMix64(seed) modulo its bound b, for every
    counter k and broadcast bound b >= 1, in wrapping uint64 arithmetic.

    Also returns where `randbelow` would have rejected the draw: a draw z is
    rejected when 2**64 mod b != 0 and z >= 2**64 - (2**64 mod b).
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    # numpy warns when a 0-d operand wraps; the wrap is the arithmetic wanted
    with np.errstate(over="ignore"):
        z = np.asarray(counters, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    # 2**64 mod b, computed as (2**64 - b) mod b; its negation is the limit
    excess = np.negative(bounds) % bounds
    rejected = (excess != 0) & (z >= np.negative(excess))
    return z % bounds, rejected


def shuffle_rows(draws: np.ndarray) -> np.ndarray:
    """Descending Fisher-Yates shuffles of 0..size-1, one per row of the
    (count, size - 1) array `draws`: entry t is the randbelow draw that
    `shuffle` swaps with index size - 1 - t. Returns the permutations as a
    read-only (count, size) int32 array."""
    count, steps = draws.shape
    size = steps + 1
    perms = np.tile(np.arange(size, dtype=np.int32), (count, 1))
    if count >= _BATCH_ROWS:
        draws = draws.astype(np.intp)
        rows = np.arange(count)
        for t in range(steps):
            i, j = size - 1 - t, draws[:, t]
            perms[rows, i], perms[rows, j] = perms[rows, j], perms[rows, i]
    else:
        for row, perm in zip(draws, perms):
            items = list(range(size))
            for start in range(0, steps, _CHUNK):
                chunk = row[start : start + _CHUNK].tolist()
                for i, j in zip(range(size - 1 - start, 0, -1), chunk):
                    items[i], items[j] = items[j], items[i]
            perm[:] = items
    perms.setflags(write=False)
    return perms
