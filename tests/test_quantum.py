import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab import quantum, realism
from belllab.core import SYM_E, SYM_EP, SYM_P, Block, Side, correlate
from belllab.quantum import (
    REFINEMENT,
    SingletSource,
    born_same,
    born_threshold,
    fair_coins,
    keep_probability,
    pair_uniforms,
    parity_coins,
    refinement_words,
    twisted_malus,
)
from belllab.realism import CollapseSequential, LHVSign, lhv_outcomes

SQRT2 = math.sqrt(2.0)


def measure(seed, theta_a, theta_b, count, index=0):
    block = Block({SYM_E: theta_a, SYM_P: theta_b}, count=count, index=index)
    return SingletSource().sample_pairs(block, seed)


def prepared(seed, signs, axis_angle, theta, index=0):
    """Measure prepared states |sign> along ``axis_angle`` at ``theta``,
    one lane each from column 0 of the block with ``index``."""
    signs = np.asarray(signs)
    block = Block({SYM_E: theta}, count=signs.size, index=index)
    w = pair_uniforms(block, seed, slice(None))
    refine = functools.partial(refinement_words, block, seed, 0, 0)
    return np.where(born_same(w, keep_probability(theta - axis_angle), refine), signs, -signs)


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
        for column, bits in ((0, 16), (1, 16), (0, 32)):
            u = pair_uniforms(block, 42, slice(None), column, bits)
            v = pair_uniforms(block, 42, slice(60, 100), column, bits)
            assert np.array_equal(u[60:], v)

    def test_seed_validation(self):
        block = Block({SYM_E: 0.0}, count=1)
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(block, -1, slice(None), 1)
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(block, 2**64, slice(None), 1)

    def test_refinement_words_share_the_stream_address(self):
        # seed 2**64 at index 0 would be the key of seed 0 at index 1
        ties = np.arange(4)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                refinement_words(Block({SYM_E: 0.0}, count=4), seed, 0, 0, ties)
        first, second = (Block({SYM_E: 0.0}, count=4, index=i) for i in (0, 1))
        for column in (0, 1):
            words = refinement_words(second, 0, column, 0, ties)
            assert words.dtype == np.uint32
            assert np.array_equal(words, pair_uniforms(
                second, 0, slice(None), REFINEMENT + column, bits=32))
            assert not np.array_equal(words, refinement_words(first, 0, column, 0, ties))


def split_lanes(raw, bits=16):
    """A word array's lanes of ``bits`` bits, the low bits of each word first."""
    shifts = [np.uint64(bits * j) for j in range(64 // bits)]
    mask = np.uint64(2**bits - 1)
    lanes = np.stack([raw >> s & mask for s in shifts], axis=1).ravel()
    return lanes.astype(np.uint16 if bits == 16 else np.uint32)


def reference_lanes(block, seed, lo, hi, column=0, bits=16):
    """Lanes lo..hi-1 of region ``column``, split from a freshly keyed
    np.random.Philox set to the region's counter ``column << 192``."""
    per_block = 4 * 64 // bits  # lanes in one counter block of 4 words
    key = seed | block.index << 64
    bg = np.random.Philox(key=key, counter=column << 192 | lo // per_block)
    skip = lo % per_block
    raw = bg.random_raw(-(-(skip + hi - lo) * bits // 64))
    return split_lanes(raw, bits)[skip : skip + hi - lo]


def reference_refinements(block, seed, column, pairs):
    """Each pair's 32-bit refinement word: lane i of region REFINEMENT + column."""
    region = REFINEMENT + column
    return np.array(
        [reference_lanes(block, seed, i, i + 1, region, 32)[0] for i in pairs], np.uint32
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    column=st.sampled_from([0, 1, 2]),
    bits=st.sampled_from([16, 32]),
    count=st.integers(1, 50),
    data=st.data(),
)
def test_pair_uniforms_reads_the_blocks_words_in_order(seed, index, column, bits, count, data):
    # lane 4j of a column is the low 16 bits of word j of its region, 32-bit
    # lane 2j the low half; spans start at any lane of a word
    lo = data.draw(st.integers(0, count), label="lo")
    hi = data.draw(st.integers(lo, count), label="hi")
    block = Block({SYM_E: 0.0}, count=count, index=index)
    got = pair_uniforms(block, seed, slice(lo, hi), column, bits)
    bg = np.random.Philox(key=seed | index << 64, counter=column << 192)
    stream = split_lanes(bg.random_raw(-(-count * bits // 64)), bits)[:count]
    assert got.dtype == (np.uint16 if bits == 16 else np.uint32)
    assert np.array_equal(got, stream[lo:hi])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    column=st.integers(0, 3),
    bits=st.sampled_from([16, 32]),
    lo=st.integers(0, 2**70) | st.integers(0, 64),
    length=st.integers(0, 9),
)
# spans that start inside a counter block, and inside a word
@example(seed=13, index=5, column=0, bits=16, lo=7, length=9)
@example(seed=13, index=5, column=1, bits=16, lo=13, length=9)
@example(seed=13, index=5, column=0, bits=32, lo=3, length=9)
def test_pair_uniforms_matches_a_freshly_keyed_philox(seed, index, column, bits, lo, length):
    # offsets past 2**68 16-bit (2**67 32-bit) lanes carry into the counter's
    # second 64-bit word
    block = Block({SYM_E: 0.0}, count=lo + length + 1, index=index)
    got = pair_uniforms(block, seed, slice(lo, lo + length), column, bits)
    assert got.shape == (length,)
    assert np.array_equal(got, reference_lanes(block, seed, lo, lo + length, column, bits))


def test_a_32_bit_lane_is_two_16_bit_lanes():
    # LHVSign's phase lane i is the 16-bit lanes 2i (low) and 2i + 1 (high)
    block = Block({SYM_E: 0.0}, count=2_000, index=3)
    phases = pair_uniforms(block, 5, slice(None), 0, 32)
    halves = pair_uniforms(Block({SYM_E: 0.0}, count=4_000, index=3), 5, slice(None))
    joined = halves[0::2].astype(np.uint32) | halves[1::2].astype(np.uint32) << np.uint32(16)
    assert np.array_equal(phases, joined)


def test_regions_share_no_counter(monkeypatch):
    # every Philox block a collapse draw reads, forced ties included, lies in
    # its column's region or its column's refinement region
    block = Block({SYM_P: 0.0, SYM_E: 0.0, SYM_EP: 0.0}, count=3_000, index=4)
    angle_e = tie_angle(pair_uniforms(block, 8, slice(None), 0)[17])
    angle_ep = tie_angle(pair_uniforms(block, 8, slice(None), 1)[42])
    block = Block({SYM_P: 0.0, SYM_E: angle_e, SYM_EP: angle_ep}, count=3_000, index=4)
    reads = []
    real = quantum._philox

    class Recording:
        def __init__(self, key, counter):
            self.key, self.counter = key, counter

        def random_raw(self, words):
            reads.append((self.key, self.counter, self.counter + -(-words // 4)))
            return real(self.key, self.counter).random_raw(words)

    monkeypatch.setattr(quantum, "_philox", Recording)
    CollapseSequential().disagreement_counts(block, 8, slice(None), [(SYM_E, SYM_EP)])
    # four distinct regions: the two columns and their refinement words
    regions = sorted({lo >> 192 for _, lo, _ in reads})
    assert regions == [0, 1, 2**63, 2**63 + 1] and REFINEMENT == 2**63
    assert {key for key, _, _ in reads} == {8 | 4 << 64}
    for _, lo, hi in reads:  # no read runs into the next region
        assert (hi - 1) >> 192 == lo >> 192
    # the last lane of a region is readable, one past it is not
    end = Block({SYM_E: 0.0}, count=2**196 + 1)
    assert pair_uniforms(end, 1, slice(2**196 - 1, 2**196)).shape == (1,)
    with pytest.raises(ValueError, match="past their region"):
        pair_uniforms(end, 1, slice(2**196 - 1, 2**196 + 1))


# Philox4x64-10 of Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3" (SC'11): the round multipliers and the Weyl key increments.
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
WORD = 2**64 - 1


def philox4x64_10(counter, key):
    """The four 64-bit words the cipher gives for a 256-bit counter and a
    128-bit key, both least significant word first; plain Python, no numpy."""
    x = [counter >> s & WORD for s in (0, 64, 128, 192)]
    k = [key & WORD, key >> 64]
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * x[0], PHILOX_M[1] * x[2]
        x = [p1 >> 64 ^ x[1] ^ k[0], p1 & WORD, p0 >> 64 ^ x[3] ^ k[1], p0 & WORD]
        k = [(k[0] + PHILOX_W[0]) & WORD, (k[1] + PHILOX_W[1]) & WORD]
    return x


def cipher_counter(region, position):
    """The cipher counter of a region's position: numpy's Philox bumps its
    counter before each block, so state counter c gives cipher block c + 1."""
    return (region << 192 | position) + 1


def spec_lanes(key, region, first, count, bits):
    """Lanes ``first`` to ``first + count - 1`` of ``bits`` bits of a region,
    by the stream address alone: lane j is bits ``bits * (j % m)`` up of word
    ``j // m % 4`` of position ``j // (4 * m)``, for m = 64 // bits lanes a word."""
    m = 64 // bits
    return [
        philox4x64_10(cipher_counter(region, j // (4 * m)), key)[j // m % 4]
        >> bits * (j % m) & (2**bits - 1)
        for j in range(first, first + count)
    ]


def test_the_reference_philox_gives_the_published_known_answers():
    # the philox4x64 10-round vectors of the Random123 distribution (kat_vectors)
    pi_counter = sum(w << 64 * i for i, w in enumerate(
        [0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89]))
    pi_key = 0x452821E638D01377 | 0xBE5466CF34E90C6C << 64
    assert philox4x64_10(0, 0) == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    assert philox4x64_10(2**256 - 1, 2**128 - 1) == [
        0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0]
    assert philox4x64_10(pi_counter, pi_key) == [
        0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6]


REGIONS = [0, 1, REFINEMENT, REFINEMENT + 1]


@pytest.mark.parametrize("bits", [16, 32])
@pytest.mark.parametrize("position", [0, 1, 2**192 - 1])
@pytest.mark.parametrize("region", REGIONS)
def test_lanes_are_the_stream_address_bit_for_bit(region, position, bits):
    per_position = 256 // bits
    key = 0x9F3B_6C11_05D2_E8A7 | 0x41C6_77E0_B92D_3F58 << 64  # both halves nonzero
    for skip, count in ((0, per_position), (3, per_position - 3), (per_position - 1, 1)):
        first = position * per_position + skip
        got = quantum._lanes(key, region, first, count, bits)
        assert got.tolist() == spec_lanes(key, region, first, count, bits)
    if position < 2**192 - 1:  # a span that crosses into the next position
        first = position * per_position + 5
        got = quantum._lanes(key, region, first, per_position, bits)
        assert got.tolist() == spec_lanes(key, region, first, per_position, bits)


@settings(max_examples=100, deadline=None)
@given(
    key=st.integers(0, 2**128 - 1),
    region=st.sampled_from(REGIONS) | st.integers(0, 2**64 - 1),
    bits=st.sampled_from([16, 32]),
    first=st.integers(0, 2**70) | st.integers(0, 64),
    count=st.integers(1, 40),
)
def test_lanes_are_the_stream_address_at_random_keys(key, region, bits, first, count):
    got = quantum._lanes(key, region, first, count, bits)
    assert got.tolist() == spec_lanes(key, region, first, count, bits)


def test_regions_share_no_cipher_counter():
    # with the + 1, region r's cipher counters run from r << 192 + 1 to
    # (r + 1) << 192 inclusive, so the lane and refinement regions are disjoint
    spans = sorted((cipher_counter(r, 0), cipher_counter(r, 2**192 - 1)) for r in REGIONS)
    assert spans[0] == (1, 2**192)
    assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def test_threads_draw_their_own_words():
    # more threads than cores, switching often: a Philox shared between
    # threads would hand one thread's key or counter to another's draw
    blocks = [Block({SYM_E: 0.0}, count=5_000, index=i) for i in range(6)]
    pairs = [0, 9, 4_321, 4_999]
    want = [reference_lanes(b, 11, 0, b.count, 1) for b in blocks]
    want_words = [reference_refinements(b, 11, 1, pairs) for b in blocks]
    failures = []

    def draw(k):
        for i in range(100):
            j = (k + i) % len(blocks)
            if not np.array_equal(pair_uniforms(blocks[j], 11, slice(None), 1), want[j]):
                failures.append((k, i))
            words = refinement_words(blocks[j], 11, 1, 0, np.array(pairs))
            if not np.array_equal(words, want_words[j]):
                failures.append((k, i, "refinement"))

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
    w = pair_uniforms(block, 9, slice(None))
    a, b = SingletSource().sample_pairs(block, 9)
    refine = functools.partial(refinement_words, block, 9, 0, 0)
    assert np.array_equal(a, np.where(w & np.uint16(1), -1, 1))
    assert np.array_equal(b, np.where(born_same(w, keep_probability(0.3 - -1.2), refine), -a, a))


@pytest.mark.parametrize("p", [0.5, math.cos(3 * math.pi / 8) ** 2])
def test_bit_0_coin_and_born_draw_of_one_word_are_independent(p):
    # an exact 2x2 count over 2**20 lanes; chi-squared with one degree of
    # freedom, 10.83 is its 0.1% point
    block = Block({SYM_E: 0.0}, count=2**20)
    w = pair_uniforms(block, 23, slice(None))
    coin = parity_coins(w) > 0
    draw = born_same(w, p, functools.partial(refinement_words, block, 23, 0, 0))
    table = np.array([[np.count_nonzero(coin & draw), np.count_nonzero(coin & ~draw)],
                      [np.count_nonzero(~coin & draw), np.count_nonzero(~coin & ~draw)]])
    n = int(table.sum())
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    assert n == 2**20 and table.min() > 0
    assert float(((table - expected) ** 2 / expected).sum()) < 10.83
    assert abs(np.count_nonzero(draw) / n - p) < 5 * math.sqrt(p * (1 - p) / n)


def born_cases():
    yield from (0.0, 2.0**-53, 2.0**-47, 2.0**-31, 0.5, 1.0 - 2.0**-47, 1.0 - 2.0**-53, 1.0)
    for delta in np.linspace(-math.pi, math.pi, 100):
        yield (1.0 + math.cos(delta)) / 2.0
        yield (1.0 - math.cos(delta)) / 2.0


def test_born_threshold_is_the_double_comparison():
    # u < T as 47-bit integers exactly when the double u * 2**-47 is below p
    rng = np.random.default_rng(3)
    for p in born_cases():
        high, low = born_threshold(p)
        assert type(high) is np.uint16 and type(low) is np.uint32
        t = int(high) << 32 | int(low)
        edge = [min(max(t + d, 0), 2**47 - 1) for d in (-2, -1, 0, 1)]
        for u in [*edge, *rng.integers(0, 2**47, 50).tolist()]:
            assert (u < t) == (u * 2.0**-47 < p), (p, u)
    assert born_threshold(1.0) == (2**15, 0) and born_threshold(0.0) == (0, 0)


def forty_seven_bit_test(lanes, words, t):
    """The direct test: ((l >> 1) * 2**32 + r) < T as Python integers."""
    return np.array([(int(l) >> 1 << 32 | int(r)) < t for l, r in zip(lanes, words)])


@pytest.mark.parametrize(
    "t", [0, 1, 2**30, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**47 - 1, 2**47]
)
def test_born_same_is_the_shifted_test(t):
    # lanes on either side of the tie with T's top 15 bits, both ends of the
    # range, and every refinement word next to T's low 32 bits; p = T / 2**47
    # is exact, and only tied lanes read a word
    p = t / 2**47
    high, low = born_threshold(p)
    assert int(high) << 32 | int(low) == t
    h = int(high)
    edge_lanes = [2 * h - 1, 2 * h, 2 * h + 1, 2 * h + 2, 0, 1, 2**16 - 2, 2**16 - 1]
    edge_words = [int(low) + d for d in (-1, 0, 1)] + [0, 2**32 - 1]
    grid = [(l, r) for l in edge_lanes if 0 <= l < 2**16 for r in edge_words if 0 <= r < 2**32]
    lanes = np.array([l for l, _ in grid], dtype=np.uint16)
    words = np.array([r for _, r in grid], dtype=np.uint32)
    asked = []

    def refine(ties):
        asked.extend(ties.tolist())
        return words[ties]

    want = forty_seven_bit_test(lanes, words, t)
    assert np.array_equal(born_same(lanes, p, refine), want)
    tied = [i for i, l in enumerate(lanes) if int(l) >> 1 == h]
    assert asked == (tied if low and h < 2**15 else [])
    strided = np.stack([lanes[::-1], lanes], axis=1)[:, 1]  # a non-contiguous view
    assert np.array_equal(born_same(strided, p, lambda ties: words[ties]), want)


def tie_angle(lane):
    """An angle delta whose keep_probability(delta) has the top 15 threshold
    bits ``lane >> 1`` and nonzero low bits, so that ``lane`` ties."""
    h = int(lane) >> 1
    delta = math.acos(2 * (h + 0.5) / 2**15 - 1)
    high, low = born_threshold(keep_probability(delta))
    assert high == h and low != 0
    return delta


def test_forced_ties_read_the_refinement_word(monkeypatch):
    block = Block({SYM_E: 0.0, SYM_P: 0.0}, count=5_000, index=6)
    lanes = pair_uniforms(block, 21, slice(None))
    delta = tie_angle(lanes[1234])
    block = Block({SYM_E: delta, SYM_P: 0.0}, count=5_000, index=6)
    tied = np.flatnonzero(lanes >> np.uint16(1) == lanes[1234] >> np.uint16(1))
    asked = []

    def spy(block, seed, column, first, ties):
        asked.extend(first + int(t) for t in ties)
        return refinement_words(block, seed, column, first, ties)

    monkeypatch.setattr(quantum, "refinement_words", spy)
    a, b = SingletSource().sample_pairs(block, 21)
    assert asked == tied.tolist() and 1234 in asked
    high, low = born_threshold(keep_probability(delta))
    t = int(high) << 32 | int(low)
    words = reference_refinements(block, 21, 0, range(block.count))
    assert np.array_equal(a != b, forty_seven_bit_test(lanes, words, t))
    (count,) = SingletSource().disagreement_counts(block, 21, slice(None), [(SYM_E, SYM_P)])
    assert count == np.count_nonzero(a != b)


@pytest.mark.parametrize("collapse", [False, True], ids=["singlet", "collapse"])
def test_forced_tie_counts_do_not_depend_on_chunk_size(collapse, monkeypatch):
    n = 2**16 + 300
    lanes = pair_uniforms(Block({SYM_E: 0.0}, count=n, index=2), 4, slice(None))
    delta = tie_angle(lanes[2**16 + 5])  # a tie in the second 2**16 chunk
    if collapse:
        model, pairs = CollapseSequential(), [(SYM_P, SYM_E), (SYM_P, SYM_EP), (SYM_E, SYM_EP)]
        block = Block({SYM_P: 0.0, SYM_E: delta, SYM_EP: -delta}, count=n, index=2)
    else:
        model, pairs = SingletSource(), [(SYM_E, SYM_P)]
        block = Block({SYM_E: delta, SYM_P: 0.0}, count=n, index=2)
    whole = realism.generate_block(model, block, 4)
    want = [correlate(whole[a], whole[b]) for a, b in pairs]
    for chunk in (1, 7, 2**16, n):
        monkeypatch.setattr(realism, "CHUNK_PAIRS", chunk)
        assert realism.correlate_block(model, block, 4, pairs) == want, chunk


def test_draws_keep_their_integer_dtypes():
    lanes = pair_uniforms(Block({SYM_E: 0.0}, count=64), 5, slice(None))
    assert lanes.dtype == np.uint16
    assert parity_coins(lanes).dtype == np.int8
    refine = functools.partial(refinement_words, Block({SYM_E: 0.0}, count=64), 5, 0, 0)
    assert born_same(lanes, 0.3, refine).dtype == bool
    phases = pair_uniforms(Block({SYM_E: 0.0}, count=64), 5, slice(None), 0, 32)
    assert fair_coins(phases).dtype == np.int8
    assert refine(np.arange(3)).dtype == np.uint32
    a, b = measure(5, 0.2, 1.3, 64)
    assert a.dtype == b.dtype == np.int8
    block = Block({SYM_E: 0.2, SYM_EP: 1.0, SYM_P: 0.0}, count=64)
    for model in (LHVSign(), CollapseSequential()):
        assert {v.dtype for v in model.assign(block, 5, slice(None)).values()} == {
            np.dtype(np.int8)
        }
    assert phases.dtype == np.uint32
    for theta in (-math.pi / 2, 0.0, math.pi / 2, math.pi):
        for side in Side:
            assert lhv_outcomes(phases, theta, side).dtype == np.int8


def test_lanes_and_thresholds_stay_uint16():
    # numpy 1.x casts by value: a signed or too-wide operand would widen the
    # 16-bit lanes, and the shifted threshold 2 * (T >> 32) must stay below
    # 2**16 in uint16 for every p < 1 (65,534 at the largest)
    block = Block({SYM_E: 0.0, SYM_P: 1.0}, count=33)
    for column in (0, 1):
        for lo in (0, 1, 5, 17):
            assert pair_uniforms(block, 5, slice(lo, None), column).dtype == np.uint16
    for p in (0.0, 2.0**-47, 2.0**-31, 0.5, 1.0 - 2.0**-47, 1.0):
        high, low = born_threshold(p)
        assert type(high) is np.uint16 and type(low) is np.uint32
        assert (high << np.uint16(1)).dtype == np.uint16
    words = np.full(8, 2**31, dtype=np.uint32)
    for p in (2.0**-47, 0.3, 1.0 - 2.0**-47):
        high, low = born_threshold(p)
        h = int(high)
        edge = [2 * h - 1, 2 * h, 2 * h + 1, 0, 2**16 - 1]
        lanes = np.array([x for x in edge if x >= 0], dtype=np.uint16)
        got = born_same(lanes, p, lambda ties: words[ties])
        assert np.array_equal(got, forty_seven_bit_test(lanes, words, h << 32 | int(low)))


def test_lanes_thresholds_and_phase_offsets_stay_uint32(monkeypatch):
    # numpy 1.x casts by value: a signed or too-wide operand would widen the
    # phase lanes to int64 or float64 and the wrapping modular test would be lost
    block = Block({SYM_E: 0.0, SYM_P: 1.0}, count=33)
    for lo in (0, 1, 5):
        assert pair_uniforms(block, 5, slice(lo, None), 0, 32).dtype == np.uint32
    for p in (0.0, 2.0**-47, 0.5, 1.0 - 2.0**-47, 1.0):
        assert type(born_threshold(p)[1]) is np.uint32
    offsets = []

    def spy(lanes):
        offsets.append(lanes)
        return fair_coins(lanes)

    monkeypatch.setattr(realism, "fair_coins", spy)
    phases = pair_uniforms(block, 5, slice(None), 0, 32)
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
