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
Philox stream, read as 32-bit lanes, two to a word.  A Born draw compares
the top 31 bits of a lane, l >> 1, with ceil(p * 2**31) as integers, the
test on the double (l >> 1) * 2**-31; p resolves to 2**-31.  That test
never reads bit 0, so a fair coin from bit 0 of the same lane is exactly
independent of it: a singlet pair reads one lane.

Bob's outcome is -a where his Born draw keeps the prepared sign and a
elsewhere, so a*b = -1 exactly where the draw keeps it, whatever Alice's
coin a is: the coin cancels in every product, and the Born test alone
gives the count of disagreements a correlation needs (``disagreements``).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .core import Angle, Block, Side, as_angle, side_of_symbol

__all__ = ["SingletSource", "pair_uniforms", "twisted_malus"]


def twisted_malus(theta1: "Angle | float", theta2: "Angle | float") -> float:
    """Singlet correlation between projections along two axes: -cos(t1 - t2)."""
    return -math.cos(float(as_angle(theta1).radians) - float(as_angle(theta2).radians))


# Every operand of a uint32 array is np.uint32: numpy 1.x promotes an
# unsigned array mixed with a signed integer to a wider or a float type.
_ONE = np.uint32(1)
_HALF = np.uint32(2**31)  # also born_threshold(1), which every lane passes
_BIT0 = np.uint8(1)
_WORD = 2**64 - 1
_local = threading.local()  # each thread's own Philox and its state template


def _philox(key: int, counter: int) -> np.random.Philox:
    """This thread's Philox at (key, counter) with an empty buffer.  Setting
    the state skips the OS-entropy SeedSequence of np.random.Philox(key=...)."""
    if not hasattr(_local, "bg"):
        _local.bg = np.random.Philox(0)
        _local.state = _local.bg.state  # buffer empty; only the words change
    words = _local.state["state"]
    words["counter"][:] = [counter >> s & _WORD for s in (0, 64, 128, 192)]
    words["key"][:] = [key & _WORD, key >> 64]
    _local.bg.state = _local.state
    return _local.bg


def pair_uniforms(block: Block, seed: int, span: slice, lanes: int) -> np.ndarray:
    """Philox lanes for the block's pairs in ``span``, uint32 shape (count, lanes).

    The block's stream has key ``seed | block.index << 64``; lane 2j is the
    low half of its word j and lane 2j + 1 the high half, whatever the host's
    byte order (the little-endian view costs no copy on such a host), and
    word j is word j % 4 of counter block j // 4.  Pair i reads lanes
    ``lanes*i`` to ``lanes*i + lanes - 1``, so a pair's lanes never depend on
    how the block is chunked, and blocks with different indices share none.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    lo, hi, _ = span.indices(block.count)
    first, size = lo * lanes, max(hi - lo, 0) * lanes
    raw = _philox(seed | block.index << 64, first // 8).random_raw((first % 8 + size + 1) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4").astype(np.uint32, copy=False)
    return halves[first % 8 :][:size].reshape(-1, lanes)


def born_threshold(p: float) -> np.uint32:
    """``ceil(p * 2**31)``: ``l >> 1`` is below it exactly when the double
    ``(l >> 1) * 2**-31`` is below p, so p = 1 always passes and p = 0 never."""
    return np.uint32(math.ceil(p * 2**31))


def fair_coins(lanes: np.ndarray) -> np.ndarray:
    """+1 where a lane's top bit is clear (the double test u < 0.5), else -1."""
    return (lanes < _HALF).view(np.int8) * np.int8(2) - np.int8(1)


def parity_coins(lanes: np.ndarray) -> np.ndarray:
    """+1 where a lane's bit 0 is clear, else -1: a fair coin that a Born draw
    on the same lane (``l >> 1``) never sees."""
    return np.int8(1) - np.int8(2) * (lanes.astype(np.uint8) & _BIT0).view(np.int8)


def born_same(lanes: np.ndarray, p: float) -> np.ndarray:
    """True where a Born draw keeps the prepared sign, with probability p.

    The test ``l >> 1 < born_threshold(p)`` is ``l < born_threshold(p) << 1``
    for an integer threshold, so no shifted copy of the lanes is made.  At
    p = 1 the shifted threshold would be 2**32, so every lane passes there;
    at p = 0 it is 0, which no lane is below.
    """
    threshold = born_threshold(p)
    if threshold == _HALF:
        return np.ones(lanes.shape, dtype=bool)
    return lanes < threshold << _ONE


def keep_probability(delta: float) -> float:
    """(1 + cos(delta)) / 2: how often measuring |s> along an axis ``delta``
    away from its own gives s again."""
    return (1.0 + math.cos(delta)) / 2.0


class BornFlipModel:
    """``assign`` and ``disagreements`` of a model whose ``_draw(block, seed,
    span)`` gives the span's lanes, shape (count, k), and its flips.

    The flips map the reference axis to None and every other axis to a mask,
    True where that axis's outcome is the negation of the reference's.  The
    reference's outcome is the fair coin of bit 0 of each pair's first lane.
    """

    def assign(self, block: Block, seed: int, span: slice) -> dict[str, np.ndarray]:
        """The outcomes keyed by axis symbol, as int8 arrays."""
        w, flips = self._draw(block, seed, span)
        coins = parity_coins(w[:, 0])
        flipped = -coins
        return {s: coins if f is None else np.where(f, flipped, coins) for s, f in flips.items()}

    def disagreements(self, block: Block, seed: int, span: slice, pairs) -> list[np.ndarray]:
        """``u != v`` for each axis pair, from the flips alone: the coin cancels."""
        w, flips = self._draw(block, seed, span)
        masks = []
        for a, b in pairs:
            fa, fb = flips[a], flips[b]
            if fa is None and fb is None:  # the reference axis with itself
                masks.append(np.zeros(len(w), dtype=bool))
            elif fa is None or fb is None:
                masks.append(fb if fa is None else fa)
            else:
                masks.append(fa ^ fb)
        return masks


class SingletSource(BornFlipModel):
    """Singlet pairs measured along a block's one Alice and one Bob axis.

    Stateless: a block's outcomes depend only on (seed, block), and pair i
    reads lane i of the block's stream: Alice's coin is its bit 0 and Bob's
    Born draw its top 31 bits.  Alice's outcome a leaves Bob's particle in
    |-a> along her axis, so Bob's outcome is -a where the draw keeps that
    sign: corr = -cos(delta) with unbiased marginals.
    """

    def _draw(self, block: Block, seed: int, span: slice) -> tuple[np.ndarray, dict]:
        """The span's lanes and flips, Alice's axis the reference."""
        symbol = {side_of_symbol(s): s for s in block.axes}
        if len(block.axes) != 2 or len(symbol) != 2:
            raise ValueError("a singlet block needs one Alice axis and one Bob axis")
        alice, bob = symbol[Side.ALICE], symbol[Side.BOB]
        w = pair_uniforms(block, seed, span, 1)
        delta = block.axes[alice].radians - block.axes[bob].radians
        return w, {alice: None, bob: born_same(w[:, 0], keep_probability(delta))}

    def sample_pairs(
        self, block: Block, seed: int, span: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure the block's pairs in ``span``: int8 arrays (a, b) of the
        Alice and the Bob axis."""
        a, b = self.assign(block, seed, span).values()  # Alice's first
        return a, b
