"""Quantum predictions and sampling for the spin singlet.

For a singlet pair measured along planar axes at angles t1, t2 the
correlation of the normalized projections is

    corr = -cos(t1 - t2)        (twisted Malus law)

with unbiased +/-1 marginals on both sides, which fixes the joint law

    P(a, b) = (1 - a*b*cos(t1 - t2)) / 4 .

After one side is measured, the far particle is left in the pure state
with the opposite sign along the measured axis; measuring that prepared
state |s> along an axis at angle t has outcome expectation s*cos(t - a).

Randomness is counter-based (Salmon et al., SC'11): each block is its own
Philox stream, split into regions of counters, and a sampler reads column
c of a pair from region c, one 16-bit lane per pair.  A Born draw is the
47-bit uniform ((l >> 1) * 2**32 + r) * 2**-47 compared with p as an
integer, so p resolves to 2**-47.  It is decided lazily (Knuth & Yao
1976): the lane's top 15 bits decide it unless they tie with the
threshold's, and only then is the 32-bit refinement word r read, from a
region of its own.  Bit 0 of the lane is never part of the draw, so a fair
coin from it is exactly independent of the draw: a singlet pair reads one
lane.

Bob's outcome is -a where his Born draw keeps the prepared sign and a
elsewhere, so a*b = -1 exactly where the draw keeps it, whatever Alice's
coin a is: the coin cancels in every product, and the Born test alone
gives the count of disagreements a correlation needs
(``disagreement_counts``).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .core import Block, Side, keep_heap_mapped, side_of_symbol, wrap_angle

__all__ = ["SingletSource", "pair_uniforms", "twisted_malus"]


def twisted_malus(theta1: float, theta2: float) -> float:
    """Singlet correlation between projections along two axes: -cos(t1 - t2)."""
    return -math.cos(wrap_angle(theta1) - wrap_angle(theta2))


# Every operand of a lane array has the lanes' dtype: numpy 1.x promotes an
# unsigned array mixed with a signed integer to a wider or a float type.
_ONE = np.uint16(1)
_HALF = np.uint32(2**31)
_BIT0 = np.uint8(1)
_ALL = 2**15  # the top 15 bits of born_threshold(1), which every lane passes
_WORD = 2**64 - 1
_POSITIONS = 2**192  # counters per region: region r spans r << 192 to that + 2**192
REFINEMENT = 2**63  # column c's refinement words sit in region REFINEMENT + c
_local = threading.local()  # each thread's own Philox and its state template


def _philox(key: int, counter: int) -> np.random.Philox:
    """This thread's Philox at (key, counter) with an empty buffer.  Setting
    the state skips the OS-entropy SeedSequence of np.random.Philox(key=...);
    the setter reads each word as an integer, so plain lists of them skip
    numpy's element-wise conversion (a third of the cost of a rekey)."""
    if not hasattr(_local, "bg"):
        keep_heap_mapped()
        _local.bg = np.random.Philox(0)
        _local.state = _local.bg.state  # buffer empty; only the words change
    words = _local.state["state"]
    words["counter"] = [counter >> s & _WORD for s in (0, 64, 128, 192)]
    words["key"] = [key & _WORD, key >> 64]
    _local.bg.state = _local.state
    return _local.bg


def _lanes(key: int, region: int, first: int, count: int, bits: int) -> np.ndarray:
    """Lanes ``first`` to ``first + count - 1`` of ``bits`` bits from a region.

    Word j of region r is word j % 4 of position j // 4, numpy's Philox state
    counter c = ``r << 192 | j // 4``; numpy bumps its counter before each
    block, so c yields the Philox4x64-10 block (Salmon et al., SC'11) of cipher
    counter c + 1.  Each word splits into 64 // bits lanes, its low bits first
    whatever the host's byte order (the little-endian view costs no copy on
    such a host).  A span past the region's 2**192 positions raises.
    """
    per_word = 64 // bits
    position, skip = divmod(first, 4 * per_word)
    words = -(-(skip + count) // per_word)
    if position + -(-words // 4) > _POSITIONS:
        raise ValueError(f"lanes {first}..{first + count - 1} run past their region")
    raw = _philox(key, region << 192 | position).random_raw(words)
    size = bits // 8
    lanes = raw.astype("<u8", copy=False).view(f"<u{size}").astype(f"u{size}", copy=False)
    return lanes[skip : skip + count]


def pair_uniforms(
    block: Block, seed: int, span: slice, column: int = 0, bits: int = 16
) -> np.ndarray:
    """Column ``column`` of the block's pairs in ``span``: a 1-D array of
    ``bits``-bit lanes, uint16 by default and uint32 for ``bits=32``.

    The block's stream has key ``seed | block.index << 64``, and column c
    is region c of it: pair i reads lane i, so a pair's lanes never depend
    on how the block is chunked, and blocks with different indices share
    none.  The 32-bit lane i of a region is its 16-bit lanes 2i and 2i + 1.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    lo, hi, _ = span.indices(block.count)
    return _lanes(seed | block.index << 64, column, lo, max(hi - lo, 0), bits)


def refinement_words(
    block: Block, seed: int, column: int, first: int, ties: np.ndarray
) -> np.ndarray:
    """The uint32 refinement words of column ``column`` for the block's pairs
    ``first + t``, t in ``ties``: pair i reads 32-bit lane i of region
    ``REFINEMENT + column``, which shares no counter with a lane region."""
    key, region = seed | block.index << 64, REFINEMENT + column
    words = np.empty(len(ties), dtype=np.uint32)
    for k, t in enumerate(ties):
        words[k] = _lanes(key, region, first + int(t), 1, 32)[0]
    return words


def born_threshold(p: float) -> tuple[np.uint16, np.uint32]:
    """``T = ceil(p * 2**47)`` split into its top 15 bits ``T >> 32`` and its
    low 32 bits: a 47-bit integer u is below T exactly when the double
    ``u * 2**-47`` is below p, so p = 1 (T = 2**47, top bits 2**15) always
    passes and p = 0 never."""
    t = math.ceil(p * 2**47)
    return np.uint16(t >> 32), np.uint32(t & 0xFFFFFFFF)


def fair_coins(lanes: np.ndarray) -> np.ndarray:
    """+1 where a uint32 lane's top bit is clear (the double test u < 0.5),
    else -1."""
    return (lanes < _HALF).view(np.int8) * np.int8(2) - np.int8(1)


def parity_coins(lanes: np.ndarray) -> np.ndarray:
    """+1 where a lane's bit 0 is clear, else -1: a fair coin that a Born draw
    on the same lane (``l >> 1``) never sees."""
    return np.int8(1) - np.int8(2) * (lanes.astype(np.uint8) & _BIT0).view(np.int8)


def born_same(lanes: np.ndarray, p: float, refine) -> np.ndarray:
    """True where a Born draw keeps the prepared sign, with probability p.

    With ``high, low = born_threshold(p)``, a uint16 lane l keeps it where
    ``l >> 1 < high``, which is ``l < high << 1`` with no shifted copy; where
    ``l >> 1 == high`` it keeps it iff ``r < low`` for the lane's refinement
    word r, which ``refine(ties)`` gives for the indices ``ties`` into
    ``lanes``.  That is the exact test of ((l >> 1) * 2**32 + r) * 2**-47
    against p.  Every lane passes at p = 1 (high = 2**15), none at p = 0,
    and no word is read when ``low`` is 0, since then no tie keeps the sign.
    """
    high, low = born_threshold(p)
    if high == _ALL:
        return np.ones(lanes.shape, dtype=bool)
    same = lanes < high << _ONE
    if low:
        ties = _sparse_indices(lanes >> _ONE == high)
        if ties.size:
            same[ties] = refine(ties) < low
    return same


def _sparse_indices(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)`` for a 1-D mask with few True entries: each
    ``argmax`` stops at the next True, so the scan reads the mask once and
    costs a fraction of ``flatnonzero``'s count-then-gather passes."""
    found, start = [], 0
    while start < mask.size:
        k = start + int(mask[start:].argmax())
        if not mask[k]:
            break
        found.append(k)
        start = k + 1
    return np.array(found, dtype=np.intp)


def keep_probability(delta: float) -> float:
    """(1 + cos(delta)) / 2: how often measuring |s> along an axis ``delta``
    away from its own gives s again."""
    return (1.0 + math.cos(delta)) / 2.0


class BornFlipModel:
    """``assign`` and ``disagreement_counts`` of a model whose ``_tests(block)`` maps
    each axis symbol to None, for the reference axis, or to the (column, p)
    of the Born test that keeps the sign the reference prepares.

    The reference's outcome is the fair coin of bit 0 of each pair's
    column-0 lane.  Another axis's outcome is the reference's negation where
    its test keeps the sign, so its flip mask is True there.  Each column is
    read once per span.
    """

    def _flips(self, block: Block, seed: int, span: slice) -> tuple[np.ndarray, dict]:
        """The span's column-0 lanes, and each axis's flip mask (None for the
        reference)."""
        tests = self._tests(block)
        lanes = {0: pair_uniforms(block, seed, span, 0)}
        first = span.indices(block.count)[0]
        flips: dict = {}
        for symbol, test in tests.items():
            if test is None:
                flips[symbol] = None
                continue
            column, p = test
            if column not in lanes:
                lanes[column] = pair_uniforms(block, seed, span, column)
            refine = functools.partial(refinement_words, block, seed, column, first)
            flips[symbol] = born_same(lanes[column], p, refine)
        return lanes[0], flips

    def assign(self, block: Block, seed: int, span: slice) -> dict[str, np.ndarray]:
        """The outcomes keyed by axis symbol, as int8 arrays."""
        lanes, flips = self._flips(block, seed, span)
        coins = parity_coins(lanes)
        flipped = -coins
        return {s: coins if f is None else np.where(f, flipped, coins) for s, f in flips.items()}

    def disagreement_counts(self, block: Block, seed: int, span: slice, pairs) -> list[int]:
        """How many pairs in ``span`` disagree on each axis pair, from the flips
        alone: the coin cancels, and the reference axis flips nowhere."""
        _, flips = self._flips(block, seed, span)
        counts = []
        for a, b in pairs:
            fa, fb = flips[a], flips[b]
            differ = fb if fa is None else fa if fb is None else fa ^ fb
            counts.append(0 if differ is None else int(np.count_nonzero(differ)))
        return counts


class SingletSource(BornFlipModel):
    """Singlet pairs measured along a block's one Alice and one Bob axis.

    Stateless: a block's outcomes depend only on (seed, block), and pair i
    reads lane i of column 0 of the block's stream: Alice's coin is its
    bit 0 and Bob's Born draw its top 15 bits (and, on a tie, its refinement
    word).  Alice's outcome a leaves Bob's particle in |-a> along her axis,
    so Bob's outcome is -a where the draw keeps that sign: corr = -cos(delta)
    with unbiased marginals.
    """

    def _tests(self, block: Block) -> dict:
        """Alice's axis the reference; Bob's draw on column 0."""
        symbol = {side_of_symbol(s): s for s in block.axes}
        if len(block.axes) != 2 or len(symbol) != 2:
            raise ValueError("a singlet block needs one Alice axis and one Bob axis")
        alice, bob = symbol[Side.ALICE], symbol[Side.BOB]
        delta = block.axes[alice] - block.axes[bob]
        return {alice: None, bob: (0, keep_probability(delta))}

    def sample_pairs(
        self, block: Block, seed: int, span: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure the block's pairs in ``span``: int8 arrays (a, b) of the
        Alice and the Bob axis."""
        a, b = self.assign(block, seed, span).values()  # Alice's first
        return a, b
