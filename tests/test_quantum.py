import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab import realism
from belllab.core import SYM_E, SYM_EP, SYM_P, Block, Side
from belllab.quantum import (
    SingletSource,
    born_same,
    born_threshold,
    fair_coins,
    keep_probability,
    pair_uniforms,
    parity_coins,
    twisted_malus,
)
from belllab.realism import CollapseSequential, LHVSign, lhv_outcomes

SQRT2 = math.sqrt(2.0)


def measure(seed, theta_a, theta_b, count, index=0):
    block = Block({SYM_E: theta_a, SYM_P: theta_b}, count=count, index=index)
    return SingletSource().sample_pairs(block, seed)


def prepared(seed, signs, axis_angle, theta, index=0):
    """Measure prepared states |sign> along ``axis_angle`` at ``theta``,
    one lane each from the stream of the block with ``index``."""
    signs = np.asarray(signs)
    block = Block({SYM_E: theta}, count=signs.size, index=index)
    w = pair_uniforms(block, seed, slice(None), 1)[:, 0]
    return np.where(born_same(w, keep_probability(theta - axis_angle)), signs, -signs)


class TestTwistedMalus:
    def test_equal_axes_perfectly_anti_correlated(self):
        assert twisted_malus(0.0, 0.0) == -1.0

    def test_orthogonal_axes(self):
        assert twisted_malus(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarter_turn(self):
        assert twisted_malus(3 * math.pi / 4, 0.0) == pytest.approx(
            SQRT2 / 2, abs=1e-12
        )


class TestSamplePair:
    def test_equal_axes_always_opposite(self):
        a, b = measure(11, 0.7, 0.7, 50_000)
        assert np.all(a + b == 0)

    def test_orthogonal_axes_uncorrelated(self):
        n = 100_000
        a, b = measure(5, 0.0, math.pi / 2, n)
        assert abs(np.mean(a * b)) <= 4 / math.sqrt(n)

    def test_monte_carlo_matches_analytic(self):
        # empirical correlation against -cos(delta) for several separations
        n = 100_000
        for seed, (ta, tb) in enumerate(
            [(3 * math.pi / 4, 0.0), (0.3, 1.0), (-1.2, 0.4)]
        ):
            a, b = measure(seed, ta, tb, n)
            assert np.mean(a * b) == pytest.approx(
                twisted_malus(ta, tb), abs=4 / math.sqrt(n)
            )

    def test_marginals_unbiased(self):
        n = 200_000
        a, b = measure(9, 0.9, -0.4, n)
        assert abs(np.mean(a)) <= 4 / math.sqrt(n)
        assert abs(np.mean(b)) <= 4 / math.sqrt(n)

    def test_single_pair_api(self):
        a, b = measure(1, 0.0, 0.0, 1)
        assert a.shape == b.shape == (1,)
        assert a[0] in (-1, 1) and b[0] == -a[0]

    @pytest.mark.parametrize(
        "angles",
        [{SYM_E: 0.0}, {SYM_E: 0.0, SYM_EP: 1.0}, {SYM_E: 0.0, SYM_EP: 1.0, SYM_P: 0.0}],
    )
    def test_needs_one_alice_and_one_bob_axis(self, angles):
        with pytest.raises(ValueError, match="one Alice axis and one Bob axis"):
            SingletSource().sample_pairs(Block(angles, count=2), 0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a1, b1 = measure(123, 0.2, 0.9, 1000)
        a2, b2 = measure(123, 0.2, 0.9, 1000)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_chunking_does_not_change_stream(self):
        # spans of 250 and 1 pairs: the odd ones start inside a counter block
        block = Block({SYM_E: 0.1, SYM_P: 0.5}, count=1000)
        cuts = [0, 250, 251, 500, 751, 1000]
        parts = [
            SingletSource().sample_pairs(block, 77, slice(lo, hi))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        whole_a, whole_b = measure(77, 0.1, 0.5, 1000)
        assert np.array_equal(np.concatenate([p[0] for p in parts]), whole_a)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), whole_b)

    def test_pair_uniforms_pure_in_pair_index(self):
        block = Block({SYM_E: 0.0}, count=100)
        for words in (1, 2, 3):
            u = pair_uniforms(block, 42, slice(None), words)
            v = pair_uniforms(block, 42, slice(60, 100), words)
            assert np.array_equal(u[60:], v)

    def test_seed_validation(self):
        block = Block({SYM_E: 0.0}, count=1)
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(block, -1, slice(None), 1)
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(block, 2**64, slice(None), 1)


def split_lanes(raw):
    """A word array's 32-bit lanes, the low half of each word first."""
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().astype(np.uint32)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    lanes=st.sampled_from([1, 2, 3]),
    count=st.integers(1, 50),
    data=st.data(),
)
def test_pair_uniforms_reads_the_blocks_words_in_order(seed, index, lanes, count, data):
    # lane 2j is the low half of word j and lane 2j + 1 its high half; an
    # odd lo with an odd lane count starts the span mid-word
    lo = data.draw(st.integers(0, count), label="lo")
    hi = data.draw(st.integers(lo, count), label="hi")
    block = Block({SYM_E: 0.0}, count=count, index=index)
    got = pair_uniforms(block, seed, slice(lo, hi), lanes)
    raw = np.random.Philox(key=seed | index << 64).random_raw((lanes * count + 1) // 2)
    stream = split_lanes(raw)[: lanes * count]
    assert got.dtype == np.uint32
    assert np.array_equal(got, stream.reshape(count, lanes)[lo:hi])


def reference_lanes(block, seed, lo, hi, lanes):
    """The lanes of pairs lo..hi-1, split from a freshly keyed np.random.Philox."""
    first = lo * lanes
    bg = np.random.Philox(key=seed | block.index << 64)
    bg.advance(first // 8)  # a counter block is 4 words, 8 lanes
    skip = first % 8
    raw = bg.random_raw((skip + (hi - lo) * lanes + 1) // 2)
    return split_lanes(raw)[skip : skip + (hi - lo) * lanes].reshape(-1, lanes)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    lanes=st.integers(1, 5),
    lo=st.integers(0, 2**70) | st.integers(0, 64),
    length=st.integers(0, 9),
)
# odd lo: spans that start inside a counter block, and mid-word at odd lanes
@example(seed=13, index=5, lanes=1, lo=7, length=9)
@example(seed=13, index=5, lanes=2, lo=3, length=9)
@example(seed=13, index=5, lanes=3, lo=9, length=9)
def test_pair_uniforms_matches_a_freshly_keyed_philox(seed, index, lanes, lo, length):
    # offsets past 2**67 lanes carry into the counter's second 64-bit word
    block = Block({SYM_E: 0.0}, count=lo + length + 1, index=index)
    got = pair_uniforms(block, seed, slice(lo, lo + length), lanes)
    assert got.shape == (length, lanes)
    assert np.array_equal(got, reference_lanes(block, seed, lo, lo + length, lanes))


def test_threads_draw_their_own_words():
    # more threads than cores, switching often: a Philox shared between
    # threads would hand one thread's key or counter to another's draw
    blocks = [Block({SYM_E: 0.0}, count=5_000, index=i) for i in range(6)]
    want = [reference_lanes(b, 11, 0, b.count, 2) for b in blocks]
    failures = []

    def draw(k):
        for i in range(100):
            j = (k + i) % len(blocks)
            if not np.array_equal(pair_uniforms(blocks[j], 11, slice(None), 2), want[j]):
                failures.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_singlet_pair_reads_one_lane():
    block = Block({SYM_E: 0.3, SYM_P: -1.2}, count=1_000, index=2)
    w = pair_uniforms(block, 9, slice(None), 1)[:, 0]
    a, b = SingletSource().sample_pairs(block, 9)
    assert np.array_equal(a, np.where(w & np.uint32(1), -1, 1))
    assert np.array_equal(b, np.where(born_same(w, keep_probability(0.3 - -1.2)), -a, a))


@pytest.mark.parametrize("p", [0.5, math.cos(3 * math.pi / 8) ** 2])
def test_bit_0_coin_and_born_draw_of_one_word_are_independent(p):
    # an exact 2x2 count over 2**20 lanes; chi-squared with one degree of
    # freedom, 10.83 is its 0.1% point
    w = pair_uniforms(Block({SYM_E: 0.0}, count=2**20), 23, slice(None), 1)[:, 0]
    coin = parity_coins(w) > 0
    draw = w >> np.uint32(1) < born_threshold(p)
    table = np.array([[np.count_nonzero(coin & draw), np.count_nonzero(coin & ~draw)],
                      [np.count_nonzero(~coin & draw), np.count_nonzero(~coin & ~draw)]])
    n = int(table.sum())
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    assert n == 2**20 and table.min() > 0
    assert float(((table - expected) ** 2 / expected).sum()) < 10.83
    assert abs(np.count_nonzero(draw) / n - p) < 5 * math.sqrt(p * (1 - p) / n)


def born_cases():
    yield from (0.0, 2.0**-53, 2.0**-31, 0.5, 1.0 - 2.0**-31, 1.0 - 2.0**-53, 1.0)
    for delta in np.linspace(-math.pi, math.pi, 100):
        yield (1.0 + math.cos(delta)) / 2.0
        yield (1.0 - math.cos(delta)) / 2.0


def test_born_threshold_is_the_double_comparison():
    rng_lanes = pair_uniforms(Block({SYM_E: 0.0}, count=1000), 3, slice(None), 1)[:, 0]
    for p in born_cases():
        t = born_threshold(p)
        assert isinstance(t, np.uint32)
        # the lanes whose top 31 bits sit next to the threshold, bit 0 clear and set
        k = [max(min(int(t) + d, 2**31 - 1), 0) for d in (-2, -1, 0, 1)]
        edge = np.array([x << 1 | low for x in k for low in (0, 1)], np.uint32)
        lanes = np.concatenate([rng_lanes, edge])
        by_int = (lanes >> np.uint32(1)) < t
        by_double = (lanes >> np.uint32(1)) * 2.0**-31 < p
        assert np.array_equal(by_int, by_double), p
    assert born_threshold(1.0) == 2**31 and born_threshold(0.0) == 0


@pytest.mark.parametrize("t", [0, 1, 2**30, 2**31 - 1, 2**31])
def test_born_same_is_the_shifted_test(t):
    # l >> 1 < T exactly when l < T * 2; the lanes on either side of T * 2
    # and both ends of the range, with p = T / 2**31 exact
    p = t / 2**31
    assert born_threshold(p) == t
    lanes = [t * 2 - 1, t * 2, 0, 2**32 - 1]
    lanes = np.array([w for w in lanes if 0 <= w < 2**32], dtype=np.uint32)
    want = lanes >> np.uint32(1) < np.uint32(t)
    assert np.array_equal(born_same(lanes, p), want)
    columns = np.stack([lanes[::-1], lanes], axis=1)  # strided, as models pass them
    assert np.array_equal(born_same(columns[:, 1], p), want)
    assert born_same(lanes, 1.0).all() and not born_same(lanes, 0.0).any()


def test_draws_keep_their_integer_dtypes():
    lanes = pair_uniforms(Block({SYM_E: 0.0}, count=64), 5, slice(None), 3)
    assert lanes.dtype == np.uint32
    assert fair_coins(lanes[:, 0]).dtype == np.int8
    assert parity_coins(lanes[:, 0]).dtype == np.int8
    assert born_same(lanes[:, 1], 0.3).dtype == bool
    assert born_threshold(0.25).dtype == np.uint32
    a, b = measure(5, 0.2, 1.3, 64)
    assert a.dtype == b.dtype == np.int8
    block = Block({SYM_E: 0.2, SYM_EP: 1.0, SYM_P: 0.0}, count=64)
    for model in (LHVSign(), CollapseSequential()):
        assert {v.dtype for v in model.assign(block, 5, slice(None)).values()} == {
            np.dtype(np.int8)
        }
    phases = pair_uniforms(block, 5, slice(None), 1)[:, 0]
    assert phases.dtype == np.uint32
    for theta in (-math.pi / 2, 0.0, math.pi / 2, math.pi):
        for side in Side:
            assert lhv_outcomes(phases, theta, side).dtype == np.int8


def test_lanes_thresholds_and_phase_offsets_stay_uint32(monkeypatch):
    # numpy 1.x casts by value: a signed or too-wide operand would widen the
    # lanes to int64 or float64 and the wrapping modular test would be lost
    block = Block({SYM_E: 0.0, SYM_P: 1.0}, count=33)
    for lanes in (1, 2, 3):
        for lo in (0, 1, 5):
            assert pair_uniforms(block, 5, slice(lo, None), lanes).dtype == np.uint32
    for p in (0.0, 2.0**-31, 0.5, 1.0 - 2.0**-31, 1.0):
        assert type(born_threshold(p)) is np.uint32
    offsets = []

    def spy(lanes):
        offsets.append(lanes)
        return fair_coins(lanes)

    monkeypatch.setattr(realism, "fair_coins", spy)
    phases = pair_uniforms(block, 5, slice(None), 1)[:, 0]
    # starts of 0, below 2**31 and at or above it
    for theta in (math.pi / 2, -math.pi / 2, 0.0, math.pi, 3.0, -3.0):
        lhv_outcomes(phases, theta, Side.ALICE)
    assert len(offsets) == 6
    assert {a.dtype for a in offsets} == {np.dtype(np.uint32)}


class TestCollapse:
    def test_remeasuring_same_axis_is_deterministic(self):
        # a +1 outcome leaves the partner in |-> along the same axis
        outs = prepared(4, np.full(200, -1), 0.6, 0.6)
        assert set(outs) == {-1}


class TestSamplePrepared:
    def test_eigenstate(self):
        assert np.all(prepared(8, np.ones(100), 0.0, 0.0) == 1)

    def test_opposite_orientation(self):
        assert np.all(prepared(8, np.ones(100), 0.0, math.pi) == -1)

    def test_orthogonal_axis_unbiased(self):
        n = 100_000
        outs = prepared(15, np.ones(n, dtype=np.int8), 0.0, math.pi / 2)
        assert abs(np.mean(outs)) <= 4 / math.sqrt(n)

    def test_expectation_is_sign_times_cosine(self):
        n = 100_000
        for seed, (sign, alpha, theta) in enumerate(
            [(1, 0.0, 0.8), (-1, 0.5, -0.9), (1, 2.0, 2.9)]
        ):
            outs = prepared(100 + seed, np.full(n, sign, dtype=np.int8), alpha, theta)
            assert np.mean(outs) == pytest.approx(
                sign * math.cos(theta - alpha), abs=4 / math.sqrt(n)
            )


def test_chained_consistency():
    # measure B, collapse the partner, then measure the prepared state at a
    # fresh angle: the (prepared, B) correlation must follow the singlet law
    n = 200_000
    theta_b, theta_e = 0.4, 2.1
    _, b = measure(31, 0.4, theta_b, n)  # A side discarded
    # block 0 drew the pair; the block with index 1 has its own stream
    e = prepared(31, -b, theta_b, theta_e, index=1)
    assert np.mean(e * b) == pytest.approx(
        twisted_malus(theta_e, theta_b), abs=4 / math.sqrt(n)
    )
