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
Philox stream, and a Born draw is one raw uint64 word w compared as an
integer, bit for bit the test on its uniform double (w >> 11) * 2**-53.
That test never reads the low 11 bits, so a fair coin from bit 0 of the
same word is exactly independent of it: a singlet pair reads one word.
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


# Every operand of a uint64 array is np.uint64: numpy 1.x promotes uint64
# mixed with a signed integer to float64.
_SHIFT = np.uint64(11)  # w >> 11 keeps the 53 bits a uniform double holds
_HALF = np.uint64(2**63)
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


def pair_uniforms(block: Block, seed: int, span: slice, words: int) -> np.ndarray:
    """Raw Philox words for the block's pairs in ``span``, shape (count, words).

    The block's stream has key ``seed | block.index << 64``.  Pair i reads
    its words ``words*i`` to ``words*i + words - 1``, and word j is word
    j % 4 of counter block j // 4, so a pair's words never depend on how
    the block is chunked, and blocks with different indices share none.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    lo, hi, _ = span.indices(block.count)
    first, count = lo * words, max(hi - lo, 0)
    raw = _philox(seed | block.index << 64, first // 4).random_raw(first % 4 + count * words)
    return raw[first % 4 :].reshape(count, words)


def born_threshold(p: float) -> np.uint64:
    """``ceil(p * 2**53)``: ``w >> 11`` is below it exactly when the double
    ``(w >> 11) * 2**-53`` is below p, so p = 1 always passes and p = 0 never."""
    return np.uint64(math.ceil(p * 2**53))


def fair_coins(words: np.ndarray) -> np.ndarray:
    """+1 where a word's top bit is clear (the double test u < 0.5), else -1."""
    return (words < _HALF).view(np.int8) * np.int8(2) - np.int8(1)


def parity_coins(words: np.ndarray) -> np.ndarray:
    """+1 where a word's bit 0 is clear, else -1: a fair coin that a Born draw
    on the same word (``w >> 11``) never sees."""
    return np.int8(1) - np.int8(2) * (words.astype(np.uint8) & _BIT0).view(np.int8)


def born_outcomes(signs: np.ndarray, delta: float, words: np.ndarray) -> np.ndarray:
    """Measure prepared states |sign> along an axis ``delta`` away.

    The outcome is the sign with probability (1 + cos(delta)) / 2, one word
    per pair; eigenstates stay exact, since p = 1 keeps every sign and p = 0
    flips every one.
    """
    signs = np.asarray(signs, dtype=np.int8)
    same = words >> _SHIFT < born_threshold((1.0 + math.cos(delta)) / 2.0)
    return np.where(same, signs, -signs)


class SingletSource:
    """Singlet pairs measured along a block's one Alice and one Bob axis.

    Stateless: a block's outcomes depend only on (seed, block), and pair i
    reads word i of the block's stream: Alice's coin is its bit 0 and Bob's
    Born draw its top 53 bits.
    """

    def sample_pairs(
        self, block: Block, seed: int, span: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure the block's pairs in ``span`` along its Alice and Bob axes.

        Returns int8 arrays (a, b).  Alice's outcome is a fair coin and leaves
        Bob's particle in |-a> along her axis, so corr = -cos(delta) with
        unbiased marginals.
        """
        sides = {side_of_symbol(s): theta.radians for s, theta in block.axes.items()}
        if len(block.axes) != 2 or len(sides) != 2:
            raise ValueError("a singlet block needs one Alice axis and one Bob axis")
        w = pair_uniforms(block, seed, span, 1)[:, 0]
        a = parity_coins(w)
        b = born_outcomes(-a, sides[Side.ALICE] - sides[Side.BOB], w)
        return a, b

    def assign(self, block: Block, seed: int, span: slice) -> dict[str, np.ndarray]:
        """``sample_pairs`` keyed by axis symbol, as a ``realism`` model assigns."""
        a, b = self.sample_pairs(block, seed, span)
        symbol = {side_of_symbol(s): s for s in block.axes}
        return {symbol[Side.ALICE]: a, symbol[Side.BOB]: b}
