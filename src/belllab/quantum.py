"""Quantum predictions and sampling for the spin singlet.

For a singlet pair measured along planar axes at angles t1, t2 the
correlation of the normalized projections is

    corr = -cos(t1 - t2)        (twisted Malus law)

with unbiased +/-1 marginals on both sides, which fixes the joint law

    P(a, b) = (1 - a*b*cos(t1 - t2)) / 4 .

After one side is measured, the far particle is left in the pure state
with the opposite sign along the measured axis; measuring that prepared
state |s> along an axis at angle t has outcome expectation s*cos(t - a).

Randomness is counter-based: pair i of a seed's stream is Philox counter
block i under key seed, whatever the batching.  A block's pairs start at
``Block.first_pair``, the one stream address every seeded draw reads.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Angle, Block, Side, as_angle, side_of_symbol

__all__ = ["SingletSource", "pair_uniforms", "twisted_malus"]


def twisted_malus(theta1: "Angle | float", theta2: "Angle | float") -> float:
    """Singlet correlation between projections along two axes: -cos(t1 - t2)."""
    return -math.cos(float(as_angle(theta1).radians) - float(as_angle(theta2).radians))


def pair_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) draws for pairs [start, start+count), shape (count, 4).

    Row i holds the four words of Philox counter block start+i under key
    ``seed``; a pair's draws never depend on how surrounding pairs were
    batched.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    bg = np.random.Philox(key=seed)
    if start:
        bg.advance(start)
    return np.random.Generator(bg).random((count, 4))


def born_outcomes(
    signs: np.ndarray | int, delta: float, uniforms: np.ndarray
) -> np.ndarray:
    """Measure prepared states |sign> along an axis ``delta`` away.

    P(outcome = +1) = (1 + sign * cos(delta)) / 2.  The strict comparison
    keeps eigenstates exact: probability-1 branches can never lose to a
    stray draw.
    """
    p_plus = (1.0 + np.asarray(signs) * math.cos(delta)) / 2.0
    return np.where(uniforms < p_plus, 1, -1).astype(np.int8)


class SingletSource:
    """Singlet pairs measured along a block's one Alice and one Bob axis.

    Stateless: a block's outcomes depend only on (seed, block), and its
    pairs are the ones at ``block.first_pair`` on.
    """

    def sample_pairs(self, block: Block, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Measure the block's pairs along its Alice and Bob axes.

        Returns int8 arrays (a, b).  Alice's outcome is a fair coin; Bob's
        is anti-correlated with probability (1 + cos(delta)) / 2, which
        reproduces corr = -cos(delta) with unbiased marginals.
        """
        sides = {side_of_symbol(s): theta.radians for s, theta in block.axes.items()}
        if len(block.axes) != 2 or len(sides) != 2:
            raise ValueError("a singlet block needs one Alice axis and one Bob axis")
        u = pair_uniforms(seed, block.first_pair, block.count)
        delta = sides[Side.ALICE] - sides[Side.BOB]
        a = np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)
        p_anti = (1.0 + math.cos(delta)) / 2.0
        b = np.where(u[:, 1] < p_anti, -a, a).astype(np.int8)
        return a, b
