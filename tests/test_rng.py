"""Pinned-generator regression tests: the stream must never drift."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bclayout import FamilySpec, families
from bclayout.rng import _GAMMA, SplitMix64, bounded_draws, shuffle_rows

# Published SplitMix64 reference outputs for seed 0; any change to the
# constants or the mixing steps breaks these.
SEED0_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed0_matches_reference_vector():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_REFERENCE


def test_stream_is_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = [SplitMix64(1).next_u64() for _ in range(4)]
    b = [SplitMix64(2).next_u64() for _ in range(4)]
    assert a != b


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    SplitMix64((1 << 64) - 1)  # max value is fine


def test_seed_must_be_a_non_bool_integer():
    for seed in (True, False, 3.0, "3", None):
        with pytest.raises(ValueError):
            SplitMix64(seed)
    assert SplitMix64(np.uint64(5)).next_u64() == SplitMix64(5).next_u64()


def test_randbelow_bounds():
    rng = SplitMix64(7)
    assert rng.randbelow(1) == 0
    for bound in (2, 3, 17, 1000):
        for _ in range(200):
            assert 0 <= rng.randbelow(bound) < bound
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_randbelow_hits_every_residue():
    rng = SplitMix64(11)
    seen = {rng.randbelow(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}


def test_permutation_is_valid_and_deterministic():
    rng = SplitMix64(42)
    perm = rng.permutation(8)
    assert sorted(perm) == list(range(8))
    assert perm == (3, 1, 6, 2, 4, 0, 7, 5)  # frozen from this generator


def test_shuffle_produces_both_orders_of_a_pair():
    orders = set()
    for seed in range(20):
        items = [0, 1]
        SplitMix64(seed).shuffle(items)
        orders.add(tuple(items))
    assert orders == {(0, 1), (1, 0)}


MASK = (1 << 64) - 1
# bounds just above 2**63 reject almost half their draws; powers of two none
BOUNDS = st.one_of(
    st.integers(1, MASK),
    st.integers((1 << 63) + 1, (1 << 63) + 1000),
    st.integers(0, 63).map(lambda e: 1 << e),
)


@given(
    st.integers(0, MASK),
    st.lists(st.tuples(st.integers(0, MASK), BOUNDS), min_size=1, max_size=20),
)
@example(0, [(1, 2), (MASK, 3), (0, 1 << 63)])
@example(MASK, [(2, (1 << 63) + 1), (3, (1 << 63) + 1), (4, 1 << 40)])
def test_bounded_draws_match_the_scalar_stream(seed, pairs):
    counters, bounds = zip(*pairs)
    values, rejected = bounded_draws(
        seed, np.array(counters, dtype=np.uint64), np.array(bounds, dtype=np.uint64)
    )
    for k, b, value, reject in zip(counters, bounds, values.tolist(), rejected.tolist()):
        # draw k mixes the state seed + k * gamma
        start = (seed + (k - 1) * _GAMMA) & MASK
        z = SplitMix64(start).next_u64()
        assert value == z % b
        assert reject == (z >= ((1 << 64) // b) * b)
        if reject:
            assert b & (b - 1)
        else:
            assert SplitMix64(start).randbelow(b) == value


@pytest.mark.filterwarnings("error")
def test_bounded_draws_report_a_likely_rejection():
    bound = np.full(64, (1 << 63) + 1, dtype=np.uint64)
    _, rejected = bounded_draws(7, np.arange(1, 65, dtype=np.uint64), bound)
    assert rejected.any()
    _, rejected = bounded_draws(7, np.arange(1, 65, dtype=np.uint64), bound - 1)
    assert not rejected.any()
    # scalar operands wrap silently too
    b = (1 << 63) + 1
    value, rejected = bounded_draws(MASK, MASK, b)
    z = SplitMix64((MASK + (MASK - 1) * _GAMMA) & MASK).next_u64()
    assert (value, rejected) == (z % b, z >= ((1 << 64) // b) * b)


@pytest.mark.parametrize(
    "count, size",
    [(c, s) for c in (1, 2, 7, 63, 64, 200) for s in (2, 5, 16, 257)]
    + [(1, 4096), (63, 4096)],
)
def test_shuffle_rows_matches_permutation(count, size):
    # both paths of shuffle_rows, fed the draws permutation() makes
    seed = count * 100 + size
    rng = SplitMix64(seed)
    draws = [[rng.randbelow(i + 1) for i in range(size - 1, 0, -1)] for _ in range(count)]
    rng = SplitMix64(seed)
    expected = [list(rng.permutation(size)) for _ in range(count)]
    perms = shuffle_rows(np.array(draws, dtype=np.uint64))
    assert perms.tolist() == expected
    assert perms.dtype == np.int32


@pytest.mark.parametrize("n", [2, 7, 11])  # n = 11 has levels of 64 rows and more
def test_random_tree_holds_the_shuffle_rows_output(n, monkeypatch):
    """A random member's tree adopts each level's shuffles uncopied."""
    made = []

    def recorded(draws):
        made.append(shuffle_rows(draws))
        return made[-1]

    monkeypatch.setattr(families, "shuffle_rows", recorded)
    levels = families.build_tree(FamilySpec("random", n, 3)).levels
    kept = made[-len(levels) :]
    assert len(kept) == n - 1
    for (phis, _), perms in zip(levels, kept):
        assert phis is perms


def _swaps(draws, size):
    """The descending shuffle of 0..size-1 with the given draws."""
    items = list(range(size))
    for i, j in zip(range(size - 1, 0, -1), draws):
        items[i], items[j] = items[j], items[i]
    return items


@pytest.mark.parametrize("count", [1, 5, 63, 64])
@pytest.mark.parametrize("size", [2, 3, 1000])
def test_shuffle_rows_replays_self_steps_and_long_chains(count, size):
    # every step a self-step; every step targeting 0, one chain through
    # every position; and alternating between the two
    steps = np.arange(size - 1, 0, -1)
    for row in (steps, np.zeros_like(steps), np.where(steps % 2, steps, 0)):
        perms = shuffle_rows(np.tile(row, (count, 1)).astype(np.uint64))
        assert perms.tolist() == [_swaps(row.tolist(), size)] * count

