"""Angles, outcomes, sequences, blocks, and correlation statistics.

Everything downstream works with sequences of normalized spin projections,
i.e. values in {-1, +1}, grouped into blocks of constant axis settings.
A block maps axis symbols to angles; the symbol alone fixes the side
(E, E' are Alice's, P, P' Bob's), so no axis carries a side of its own.
The correlation of two equal-length sequences is

    corr(u, v) = (1/N) * sum_i u_i * v_i          in [-1, 1]

and relates to the probability of equality by p = (1 + corr) / 2.
Products are accumulated as exact integers so that the finite-N inequality
checks elsewhere in the package are arithmetic identities, not float
approximations.  Partial-mean extrema past a sqrt(N) burn-in serve as
finite-sample proxies for liminf/limsup of a possibly non-convergent mean.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ALICE_SYMBOLS",
    "BOB_SYMBOLS",
    "SYMBOLS",
    "SYM_E",
    "SYM_EP",
    "SYM_P",
    "SYM_PP",
    "Angle",
    "Block",
    "CorrelationEstimate",
    "OutcomeSequence",
    "RunningCorrelation",
    "Side",
    "correlate",
    "default_burn_in",
    "pair_symbol",
    "side_of_symbol",
]

# Canonical axis symbols.  E and E' live on Alice's side, P and P' on Bob's.
SYM_E = "E"
SYM_EP = "E'"
SYM_P = "P"
SYM_PP = "P'"
SYMBOLS = (SYM_E, SYM_EP, SYM_P, SYM_PP)
ALICE_SYMBOLS = frozenset({SYM_E, SYM_EP})
BOB_SYMBOLS = frozenset({SYM_P, SYM_PP})


class Side(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def side_of_symbol(symbol: str) -> Side:
    """Side an axis symbol belongs to (E, E' -> Alice; P, P' -> Bob)."""
    if symbol in ALICE_SYMBOLS:
        return Side.ALICE
    if symbol in BOB_SYMBOLS:
        return Side.BOB
    raise ValueError(f"unknown axis symbol: {symbol!r}")


def pair_symbol(a: str, b: str) -> str:
    """Canonical display form for a correlation, e.g. '<E,P>'.

    The two axis symbols are sorted into the fixed order E, E', P, P'
    so <P,E> and <E,P> name the same correlation.
    """
    if a not in SYMBOLS or b not in SYMBOLS:
        raise ValueError(f"unknown axis symbol in pair: ({a!r}, {b!r})")
    first, second = sorted((a, b), key=SYMBOLS.index)
    return f"<{first},{second}>"


def _wrap(radians: float) -> float:
    """Map any real angle to the interval (-pi, pi]."""
    r = math.remainder(radians, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class Angle:
    """Planar angle in radians, normalized to (-pi, pi] at construction."""

    radians: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radians", _wrap(float(self.radians)))

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.radians - other.radians)


def as_angle(value: "Angle | float") -> Angle:
    return value if isinstance(value, Angle) else Angle(float(value))


class OutcomeSequence:
    """A finite run of +/-1 outcomes observed (or inferred) along one axis.

    Values are stored as an immutable int8 array.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.int8)
        if arr.ndim != 1:
            raise ValueError("outcome values must be one-dimensional")
        if arr.size and not np.all(np.abs(arr) == 1):
            raise ValueError("outcome values must all be +1 or -1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeSequence):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"OutcomeSequence(n={len(self)})"


@dataclass(frozen=True)
class Block:
    """A stretch of pairs measured with constant axis settings.

    ``axes`` maps axis symbols (E, E', P, P') to their angles; any real
    angle is wrapped to an ``Angle``, and an unknown symbol is rejected.
    ``index`` names the block's own Philox stream (``quantum.pair_uniforms``),
    so blocks with different indices never share a draw.
    """

    axes: Mapping[str, "Angle | float"]
    count: int
    index: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"block count must be >= 1, got {self.count}")
        if not 0 <= self.index < 2**64:
            raise ValueError(f"block index must be in [0, 2**64), got {self.index}")
        for symbol in self.axes:
            side_of_symbol(symbol)  # raises on an unknown symbol
        axes = {symbol: as_angle(theta) for symbol, theta in self.axes.items()}
        object.__setattr__(self, "axes", axes)


def default_burn_in(n: int) -> int:
    """Samples ignored before partial-mean extrema are tracked: ceil(sqrt(N))."""
    return math.isqrt(max(n, 0) - 1) + 1 if n > 0 else 0


@dataclass(frozen=True)
class CorrelationEstimate:
    """Running estimate of a correlation over one sequence pair.

    ``sum_products`` is the exact integer sum of pairwise products, so the
    mean is one exact division.  ``running_min_mean``/``running_max_mean``
    are the extrema of the partial means at indices past ``burn_in``; they
    act as finite-N stand-ins for liminf/limsup when convergence is not
    guaranteed.  For an estimate with no tracked partials (n <= burn_in)
    both extrema collapse to the mean.
    """

    n: int
    sum_products: int
    burn_in: int
    running_min_mean: float
    running_max_mean: float

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("mean of an empty estimate is undefined")
        return self.sum_products / self.n

    @property
    def straddles_zero(self) -> bool:
        return self.running_min_mean <= 0.0 <= self.running_max_mean


class RunningCorrelation:
    """``correlate`` of two length-``n`` sequences fed in consecutive chunks.

    The int64 product sum and the partial-mean extrema carry over from chunk
    to chunk, and each partial mean is the same division csum[i] / (i + 1)
    as over the whole arrays, so the estimate does not depend on the split.
    """

    def __init__(self, n: int) -> None:
        self.n, self.seen, self.total, self.burn_in = n, 0, 0, default_burn_in(n)
        self.lo, self.hi = math.inf, -math.inf

    def add(self, u: np.ndarray, v: np.ndarray) -> None:
        """Feed the next stretch of both sequences as +/-1 int8 arrays."""
        start, self.seen = self.seen, self.seen + u.size
        csum = np.cumsum(u * v, dtype=np.int64)
        csum += self.total
        skip = max(self.burn_in - start, 0)
        if skip < u.size:
            partial = csum[skip:] / np.arange(start + skip + 1, self.seen + 1)
            self.lo = min(self.lo, float(partial.min()))
            self.hi = max(self.hi, float(partial.max()))
        self.total = int(csum[-1]) if u.size else self.total

    def estimate(self) -> CorrelationEstimate:
        if self.seen != self.n:
            raise ValueError(f"{self.seen} of {self.n} values fed")
        mean = self.total / self.n
        lo, hi = (self.lo, self.hi) if self.n > self.burn_in else (mean, mean)
        return CorrelationEstimate(self.n, self.total, self.burn_in, lo, hi)


def correlate(u: OutcomeSequence, v: OutcomeSequence) -> CorrelationEstimate:
    """Correlation of two equal-length outcome sequences.

    The mean is sum(u_i * v_i) / N with an exact integer numerator.  Partial
    means at indices > burn_in = ceil(sqrt(N)) feed the running extrema.
    This is the one-chunk case of ``RunningCorrelation``.
    """
    n = len(u)
    if n == 0:
        raise ValueError("cannot correlate empty sequences")
    if len(v) != n:
        raise ValueError(f"length mismatch: {n} vs {len(v)}")
    running = RunningCorrelation(n)
    running.add(u.values, v.values)
    return running.estimate()
