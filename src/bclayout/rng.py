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

Many rows are shuffled together one index at a time, held as a (size, count)
array: position i of every row is one contiguous row, so a step is one row
copy, one gather into it and one scatter. With its draws fixed, the
descending shuffle has only logarithmic dependence depth (Shun, Gu,
Blelloch, Fineman and Gibbons, SODA 2015), so a few long rows are replayed
at once instead of swapped one index at a time. Step i swaps positions i
and j_i <= i, and no later step touches position i, so the final value at i
is what position j_i held just before step i; step 0 is a self-step that
leaves position 0 its last value. A position p holds p until a step
targets it, and from then on what the latest such step wrote: the value its
own position held just before that step. So p's value just before its own
step comes from the smallest later step that targets p, a chain of rising
steps that pointer jumping resolves in logarithmically many rounds; and a
step receives what the previous writer of its target wrote (the next larger
step of the same target), or the target itself if no step wrote it before.
One sort of the steps by the key target << bits | step, bits the bit length
of the position count, pairs each step with that writer; a shift and a mask
take the key apart again.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# shuffle_rows shuffles at least this many permutations one index at a time
# across all of them, and fewer, larger ones by replaying their draws at once.
_BATCH_ROWS = 64


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
    values = z % bounds
    # 2**64 mod b < b, so only a draw of at least 2**64 - max(b) can be rejected
    if not bounds.size or not (z >= np.negative(bounds.max())).any():
        return values, np.zeros(values.shape, dtype=bool)
    # 2**64 mod b, computed as (2**64 - b) mod b; its negation is the limit
    excess = np.negative(bounds) % bounds
    return values, (excess != 0) & (z >= np.negative(excess))


def shuffle_rows(draws: np.ndarray) -> np.ndarray:
    """Descending Fisher-Yates shuffles of 0..size-1, one per row of the
    (count, size - 1) array `draws`: entry t is the randbelow draw that
    `shuffle` swaps with index size - 1 - t. Returns the permutations as a
    (count, size) int32 array."""
    count, steps = draws.shape
    size = steps + 1
    if count < _BATCH_ROWS:
        perms = _replay(draws)
    else:
        perms = np.empty((size, count), dtype=np.int32)
        perms[:] = np.arange(size, dtype=np.int32)[:, None]
        flat, held = perms.ravel(), np.empty(count, dtype=np.int32)
        # step t swaps flat indices i * count + row and j * count + row
        index = np.ascontiguousarray(draws.T, dtype=np.intp)
        index *= count
        index += np.arange(count)
        for t in range(steps):
            i, j = size - 1 - t, index[t]
            held[:] = perms[i]
            np.take(flat, j, out=perms[i])
            flat[j] = held
        del index
        perms = np.ascontiguousarray(perms.T)
    return perms


def _replay(draws: np.ndarray) -> np.ndarray:
    """`shuffle_rows` of every row at once, by pointer jumping (see the
    module docstring). Positions and steps are numbered row * size + i
    across the rows, and step 0 of each row is a self-step."""
    count, steps = draws.shape
    size = steps + 1
    total = count * size
    # the key target << bits | step groups the steps by target, each group
    # in increasing step order; it is the only int64 array
    bits = total.bit_length()
    offset = np.arange(0, total, size)[:, None]
    key = np.zeros((count, size), dtype=np.int64)
    key[:, :0:-1] = draws
    key += offset
    key <<= bits
    key += offset
    key += np.arange(size)
    key = key.ravel()
    key.sort()
    target = np.empty(total, dtype=np.int32)
    step = np.empty(total, dtype=np.int32)
    np.right_shift(key, bits, out=target, casting="unsafe")
    np.bitwise_and(key, (1 << bits) - 1, out=step, casting="unsafe")
    del key
    same = target[1:] == target[:-1]  # entry k + 1 wrote entry k's target before it
    # nxt[p]: the smallest later step targeting position p, or p if none;
    # a group's head is its first step above the target (a self-step is first)
    later = step > target
    head = later.copy()
    head[1:] &= ~(same & later[:-1])
    head = np.flatnonzero(head)
    nxt = np.arange(total, dtype=np.int32)
    nxt[target[head]] = step[head]
    del later, head
    jumped = np.empty_like(nxt)
    while True:
        np.take(nxt, nxt, out=jumped)
        if np.array_equal(jumped, nxt):
            break
        nxt, jumped = jumped, nxt
    # nxt[p] is now p's value just before step p; a step receives that of
    # the previous writer of its target, or the target's own value
    received, same = target, np.flatnonzero(same)
    received[same] = nxt[step[same + 1]]
    jumped[step] = received
    perms = jumped.reshape(count, size)
    perms -= offset.astype(np.int32)
    return perms
