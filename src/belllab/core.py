"""Angles, outcomes, sequences, blocks, and correlation statistics.

Everything downstream works with sequences of normalized spin projections,
i.e. values in {-1, +1}, grouped into blocks of constant axis settings.
A block maps axis symbols to angles, plain floats that ``wrap_angle`` puts in
(-pi, pi]; the symbol alone fixes the side (E, E' are Alice's, P, P' Bob's).
The correlation of two equal-length sequences is

    corr(u, v) = (1/N) * sum_i u_i * v_i          in [-1, 1]

and relates to the probability of equality by p = (1 + corr) / 2.
Products are accumulated as exact integers so that the finite-N inequality
checks elsewhere in the package are arithmetic identities, not float
approximations.  An estimate also keeps the exact partial sums S_t at the
checkpoints t = 2**k < N and t = N; the intervals S_t/t +/- tol*sqrt(N/t)
then bound a possibly non-convergent mean at every scale, and by Hoeffding's
inequality and a union bound a zero-mean run leaves 0 outside one of them
with probability at most 2*K*exp(-N*tol**2/2) over its K checkpoints.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ALICE_SYMBOLS",
    "BOB_SYMBOLS",
    "SYMBOLS",
    "SYM_E",
    "SYM_EP",
    "SYM_P",
    "SYM_PP",
    "Block",
    "CorrelationEstimate",
    "OutcomeSequence",
    "ReplayFormatError",
    "Side",
    "UndefinedCorrelationError",
    "UnsupportedAxisError",
    "checkpoints",
    "correlate",
    "keep_heap_mapped",
    "pair_symbol",
    "product_sum",
    "sica_v3_slack",
    "sica_v4_margin",
    "side_of_symbol",
    "wrap_angle",
]

# Canonical axis symbols.  E and E' live on Alice's side, P and P' on Bob's.
SYM_E = "E"
SYM_EP = "E'"
SYM_P = "P"
SYM_PP = "P'"
SYMBOLS = (SYM_E, SYM_EP, SYM_P, SYM_PP)
ALICE_SYMBOLS = frozenset({SYM_E, SYM_EP})
BOB_SYMBOLS = frozenset({SYM_P, SYM_PP})


class UnsupportedAxisError(ValueError):
    """The model has no prescription for one of the requested axes."""


class ReplayFormatError(ValueError):
    """A replay file does not match the expected layout."""


class UndefinedCorrelationError(ValueError):
    """A correlation without a definite value was required."""


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


def wrap_angle(radians: float) -> float:
    """A finite angle in (-pi, pi]; NaN or +/-inf raises ValueError naming it as passed."""
    r = float(radians)
    if not math.isfinite(r):
        raise ValueError(f"angle must be finite, got {radians!r}")
    r = math.remainder(r, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


class OutcomeSequence:
    """A finite run of +/-1 outcomes observed (or inferred) along one axis.

    Values are stored as an immutable int8 array.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int] | np.ndarray) -> None:
        import numpy as np
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
        return len(self) == len(other) and bool((self.values == other.values).all())

    def __repr__(self) -> str:
        return f"OutcomeSequence(n={len(self)})"


@dataclass(frozen=True)
class Block:
    """A stretch of pairs measured with constant axis settings.

    ``axes`` maps axis symbols (E, E', P, P') to ``wrap_angle`` of their
    angles, read-only; an unknown symbol is rejected.
    ``index`` names the block's own Philox stream (``quantum.pair_uniforms``),
    so blocks with different indices never share a draw.
    """

    axes: Mapping[str, float]
    count: int
    index: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"block count must be >= 1, got {self.count}")
        if not 0 <= self.index < 2**64:
            raise ValueError(f"block index must be in [0, 2**64), got {self.index}")
        for symbol in self.axes:
            side_of_symbol(symbol)  # raises on an unknown symbol
        axes = {symbol: wrap_angle(theta) for symbol, theta in self.axes.items()}
        object.__setattr__(self, "axes", MappingProxyType(axes))


# mallopt's parameter numbers (malloc.h), and the ceiling glibc's own dynamic
# mmap threshold reaches on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX) with the trim
# threshold, twice it, that glibc sets whenever it raises the mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def keep_heap_mapped() -> None:
    """Pin glibc malloc's mmap and trim thresholds at that ceiling, once per process.

    An array below 32 MiB then comes from the heap, and freeing it leaves its
    pages mapped unless 64 MiB lie free at the heap top, so the next search or
    chunk reuses them instead of faulting them in again.  The code that starts
    array work (the first Philox set-up, each falsification search) calls this.
    Off glibc it does nothing.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc's name
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def product_sum(n: int, differ: int) -> int:
    """Exact sum of u*v over n pairs of +/-1 values, ``differ`` of them unequal."""
    return n - 2 * differ


def sica_v3_slack(n: int, s_xy: int, s_xz: int, s_yz: int) -> float:
    """Slack of the three-sequence identity from N and its exact product sums,
    which a streamed run adds up chunk by chunk."""
    return ((n - s_yz) - abs(s_xy - s_xz)) / n


def sica_v4_margin(n: int, s_xy: int, s_xz: int, s_wy: int, s_wz: int) -> float:
    """Margin of the four-sequence identity from N and its exact product sums."""
    return (2 * n - abs(s_xy + s_xz) - abs(s_wy - s_wz)) / n


def checkpoints(n: int) -> list[int]:
    """The times t = 2**k < n and t = n at which a running mean is checked."""
    return [*(1 << k for k in range((n - 1).bit_length())), n]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Exact-integer estimate of a correlation over one sequence pair.

    ``sum_products`` is the integer sum of pairwise products, so the mean is
    one exact division; ``partial_sums`` holds the sum S_t of the first t
    products at each of ``checkpoints(n)``.
    """

    n: int
    sum_products: int
    partial_sums: tuple[int, ...]

    @property
    def mean(self) -> float:
        return self.sum_products / self.n

    @property
    def default_tol(self) -> float:
        """4/sqrt(n): the tolerance of Monte Carlo rows and, by default, verdicts."""
        return 4.0 / math.sqrt(self.n)

    def interval(self, tol: float) -> tuple[float, float]:
        """(lo, hi): the intersection over checkpoints t of S_t/t +/- tol*sqrt(n/t).

        At t = n the half-width is exactly ``tol``, so lo <= 0 <= hi implies
        |mean| <= tol; lo > hi when the intervals do not meet.
        """
        bounds = [
            (s / t, tol * math.sqrt(self.n / t))
            for t, s in zip(checkpoints(self.n), self.partial_sums)
        ]
        return max(m - h for m, h in bounds), min(m + h for m, h in bounds)

    def alpha(self, tol: float) -> float:
        """2*K*exp(-n*tol**2/2) over the K checkpoints: by Hoeffding and a union
        bound, the most often n independent zero-mean +/-1 products leave 0
        outside ``interval(tol)``."""
        return 2 * len(self.partial_sums) * math.exp(-self.n * tol * tol / 2)


def correlate(u: OutcomeSequence, v: OutcomeSequence) -> CorrelationEstimate:
    """Correlation of two equal-length outcome sequences.

    The mean is sum(u_i * v_i) / N with an exact integer numerator, and the
    partial sums at ``checkpoints(N)`` come with it.
    """
    import numpy as np
    n = len(u)
    if n == 0:
        raise ValueError("cannot correlate empty sequences")
    if len(v) != n:
        raise ValueError(f"length mismatch: {n} vs {len(v)}")
    differ = u.values != v.values
    sums = tuple(product_sum(t, int(np.count_nonzero(differ[:t]))) for t in checkpoints(n))
    return CorrelationEstimate(n, sums[-1], sums)
