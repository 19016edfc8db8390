"""Pinned-generator regression tests: the stream must never drift."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bclayout import FamilySpec, families
from bclayout.rng import _BATCH_ROWS, _GAMMA, SplitMix64, _replay, bounded_draws, shuffle_rows
from reference import seed_drawing

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
    values, rejected = bounded_draws(7, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    assert values.shape == rejected.shape == (0,)
    # scalar operands wrap silently too
    b = (1 << 63) + 1
    value, rejected = bounded_draws(MASK, MASK, b)
    z = SplitMix64((MASK + (MASK - 1) * _GAMMA) & MASK).next_u64()
    assert (value, rejected) == (z % b, z >= ((1 << 64) // b) * b)


def _scalar_rejects(z, b):
    return z >= ((1 << 64) // b) * b


@pytest.mark.parametrize("z", [MASK - 2, MASK - 1])
def test_bounded_draws_screen_passes_a_high_draw_that_no_bound_rejects(z):
    # z is at least 2**64 - max(b), so the exact rule runs; 2**64 mod b is
    # 1 for 3 and 5 and 0 for 2**63, so only 2**64 - 1 would be rejected
    bounds = np.array([3, 5, 1 << 63], dtype=np.uint64)
    values, rejected = bounded_draws(seed_drawing(z, 1), np.uint64(1), bounds)
    assert values.tolist() == [z % 3, z % 5, z % (1 << 63)]
    assert rejected.tolist() == [False] * 3


def test_bounded_draws_decide_mixed_bounds_entry_by_entry():
    # a draw of 2**64 - 2 or 2**64 - 1 broadcast against six bounds, in two
    # rows: 2**64 mod b is 1 for 3, 5 and 2**64 - 1, 4 for 6, 0 for 2**63,
    # and 2**63 - 1 for 2**63 + 1
    bounds = [3, 5, 6, 1 << 63, (1 << 63) + 1, MASK]
    for z in (MASK - 1, MASK):
        counters = np.full((2, 1), 2, dtype=np.uint64)
        values, rejected = bounded_draws(seed_drawing(z, 2), counters, np.array(bounds, dtype=np.uint64))
        assert values.shape == rejected.shape == (2, 6)
        assert values.tolist() == [[z % b for b in bounds]] * 2
        assert rejected.tolist() == [[_scalar_rejects(z, b) for b in bounds]] * 2
    assert [_scalar_rejects(MASK - 1, b) for b in bounds] == [False, False, True, False, True, False]
    assert [_scalar_rejects(MASK, b) for b in bounds] == [True, True, True, False, True, True]


@pytest.mark.parametrize(
    "count, size",
    [(c, s) for c in (1, 2, 7, 63, 64, 200) for s in (2, 5, 16, 257)]
    + [(1, 4096), (63, 4096), (63, 2048), (64, 2048)],
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



@given(
    st.integers(_BATCH_ROWS, 3 * _BATCH_ROWS),
    st.integers(2, 300),
    st.integers(0, MASK),
    st.integers(0, 8),
)
@example(_BATCH_ROWS, 2, 0, 0)
@example(_BATCH_ROWS, 300, MASK, 8)
@settings(max_examples=40)
def test_the_many_row_loop_and_the_replay_agree(count, size, seed, shift):
    # the same stream draws through both routes; a shift right keeps every
    # draw in range and aims more steps at low positions, so chains grow long
    counters = np.arange(1, count * (size - 1) + 1, dtype=np.uint64).reshape(count, size - 1)
    draws, _ = bounded_draws(seed, counters, np.arange(size, 1, -1, dtype=np.uint64))
    draws >>= np.uint64(shift)
    perms = shuffle_rows(draws)
    assert perms.flags.c_contiguous and perms.dtype == np.int32
    assert np.array_equal(perms, _replay(draws))
    assert (np.sort(perms, axis=1) == np.arange(size)).all()
