"""Spacetime ordering and hypothesis-gated correlation definability.

Events live in 1+1 dimensions with c = 1.  A pair of spacelike-separated
measurement events has no invariant time order: for any such pair there
are boosts realizing either order, and ``find_observer`` constructs them.

``DefinabilityEngine`` decides which of the six correlations among the
axes E, E' (Alice) and P, P' (Bob) have definite values under a
hypothesis set drawn from {QM, WeakRealism, Locality, EACP, FWP}:

* QM alone fixes only the measured cross correlation <E,P> = -cos(dEP).
* Weak realism makes the primed sequences exist at all.
* Locality transfers the quantum value to every pair, giving -cos on
  cross-side pairs and +cos on same-side pairs.
* The effect-after-cause principle (EACP) alone still fixes the three
  cross correlations <E,P>, <E,P'>, <E',P>, but <E',P'> stops making
  sense, and a same-side pair like <E,E'> is pinned (to zero) only when
  its axes are orthogonal and the free-will principle is also assumed;
  otherwise only the straddle liminf <= 0 <= limsup survives.

``no_correlation_check`` runs a counterfactual model and tests the zero
prediction empirically; a model that correlates orthogonal same-side axes
is thereby flagged as an EACP-violation witness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    CorrelationEstimate,
    UndefinedCorrelationError,
    correlate,  # noqa: F401  (bench/tracer.py wraps it in this module)
    pair_symbol,
    side_of_symbol,
    wrap_angle,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Boost",
    "CorrelationStatus",
    "DefinabilityEngine",
    "Hypothesis",
    "HypothesisSet",
    "IntervalType",
    "NoCorrelationReport",
    "ORTHOGONALITY_TOL",
    "SIX_PAIRS",
    "SpacetimeEvent",
    "StatusKind",
    "UndefinedCorrelationError",
    "boosted_order",
    "boosted_time",
    "find_observer",
    "interval_type",
    "no_correlation_check",
]

# Tolerance on |cos(delta)| for treating two axes as orthogonal.
ORTHOGONALITY_TOL = 1e-9

# The six correlations among the four standard axes, in canonical order.
SIX_PAIRS = (
    (SYM_E, SYM_P),
    (SYM_E, SYM_PP),
    (SYM_EP, SYM_P),
    (SYM_EP, SYM_PP),
    (SYM_E, SYM_EP),
    (SYM_P, SYM_PP),
)


@dataclass(frozen=True)
class SpacetimeEvent:
    """Event at position x and lab time t; natural units with c = 1."""

    x: float
    t: float


class IntervalType(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def interval_type(e1: SpacetimeEvent, e2: SpacetimeEvent) -> IntervalType:
    """Classify the separation by comparing |dx| with |dt| (c = 1), which,
    unlike dx^2 - dt^2, cannot underflow; ValueError if either is not finite."""
    dx = abs(e2.x - e1.x)
    dt = abs(e2.t - e1.t)
    if not (math.isfinite(dx) and math.isfinite(dt)):
        raise ValueError(f"the separation of {e1} and {e2} is not finite")
    if dx > dt:
        return IntervalType.SPACELIKE
    if dx < dt:
        return IntervalType.TIMELIKE
    return IntervalType.LIGHTLIKE


@dataclass(frozen=True)
class Boost:
    """Lorentz boost along x with velocity beta (units of c), |beta| < 1."""

    beta: float

    def __post_init__(self) -> None:
        if not abs(self.beta) < 1.0:
            raise ValueError(f"|beta| must be < 1, got {self.beta}")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta * self.beta)


def boosted_time(e: SpacetimeEvent, b: Boost) -> float:
    """Time coordinate of the event for the boosted observer."""
    return b.gamma * (e.t - b.beta * e.x)


def boosted_order(e1: SpacetimeEvent, e2: SpacetimeEvent, b: Boost) -> int:
    """Sign of t2' - t1' in the boosted frame.

    +1 means e1 happens first for that observer, -1 means e2 does,
    0 means they are simultaneous there.  The boost is linear, so it acts
    on the separation itself, gamma*((t2 - t1) - beta*(x2 - x1)): two
    boosted times that are large next to their difference would lose its
    sign to cancellation.
    """
    dt = boosted_time(SpacetimeEvent(e2.x - e1.x, e2.t - e1.t), b)
    return (dt > 0) - (dt < 0)


def find_observer(
    e_event: SpacetimeEvent, p_event: SpacetimeEvent, desired: str
) -> Boost:
    """A boost under which the desired measurement comes first.

    ``desired`` is "E-P" (the E event first) or "P-E".  Only spacelike
    pairs have frame-dependent order; anything else is an error.  The
    returned velocity is the midpoint of the admissible range.
    """
    if interval_type(e_event, p_event) is not IntervalType.SPACELIKE:
        raise ValueError(
            "events are causally ordered (not spacelike); "
            "no observer can reverse their order"
        )
    if desired == "E-P":
        first, second = e_event, p_event
    elif desired == "P-E":
        first, second = p_event, e_event
    else:
        raise ValueError(f"desired order must be 'E-P' or 'P-E', got {desired!r}")
    dt = first.t - second.t
    dx = first.x - second.x
    # want t'_first < t'_second, i.e. beta * dx > dt; spacelike => |dx| > |dt|
    bound = dt / dx
    beta = (bound + 1.0) / 2.0 if dx > 0 else (bound - 1.0) / 2.0
    # the midpoint can round to light speed, or to a velocity whose boosted
    # separation rounds to zero, when |dx| - |dt| is a few ulps of dx
    if abs(beta) < 1.0 and boosted_order(first, second, Boost(beta)) == 1:
        return Boost(beta)
    raise ValueError(f"{first} and {second} are too close to lightlike separation: "
                     f"the velocity that orders them rounds to beta = {beta}")


class Hypothesis(enum.Enum):
    QM = "QM"
    WEAK_REALISM = "WR"
    LOCALITY = "Locality"
    EACP = "EACP"
    FWP = "FWP"


_HYPOTHESIS_ALIASES = {
    "qm": Hypothesis.QM,
    "wr": Hypothesis.WEAK_REALISM,
    "weakrealism": Hypothesis.WEAK_REALISM,
    "weak-realism": Hypothesis.WEAK_REALISM,
    "weak_realism": Hypothesis.WEAK_REALISM,
    "locality": Hypothesis.LOCALITY,
    "local": Hypothesis.LOCALITY,
    "eacp": Hypothesis.EACP,
    "fwp": Hypothesis.FWP,
    "freewill": Hypothesis.FWP,
    "free-will": Hypothesis.FWP,
}


@dataclass(frozen=True)
class HypothesisSet:
    """A set of working hypotheses; QM is always included.

    Locality implies the effect-after-cause principle, so ``eacp`` reads
    true whenever either flag is present.
    """

    flags: frozenset[Hypothesis]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "flags", frozenset(self.flags) | {Hypothesis.QM}
        )

    @classmethod
    def parse(cls, text: str) -> "HypothesisSet":
        flags = set()
        for token in text.replace("+", ",").split(","):
            token = token.strip()
            if not token:
                continue
            key = token.lower()
            if key not in _HYPOTHESIS_ALIASES:
                raise ValueError(f"unknown hypothesis: {token!r}")
            flags.add(_HYPOTHESIS_ALIASES[key])
        return cls(frozenset(flags))

    @property
    def weak_realism(self) -> bool:
        return Hypothesis.WEAK_REALISM in self.flags

    @property
    def locality(self) -> bool:
        return Hypothesis.LOCALITY in self.flags

    @property
    def eacp(self) -> bool:
        return Hypothesis.EACP in self.flags or self.locality

    @property
    def fwp(self) -> bool:
        return Hypothesis.FWP in self.flags

    def label(self) -> str:
        """The flags in declaration order, e.g. {QM,WR,EACP,FWP}."""
        return "{" + ",".join(h.value for h in Hypothesis if h in self.flags) + "}"


class StatusKind(enum.Enum):
    DEFINED = "defined"
    ZERO_BY_NO_CORRELATION = "zero-by-no-correlation"
    BOUNDED = "bounded"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class CorrelationStatus:
    """Definability verdict for one correlation under a hypothesis set.

    ``value`` is set exactly for the definite statuses, DEFINED and the
    lemma's zero.  A BOUNDED pair has no value: the parity argument
    certifies only liminf <= 0 <= limsup of its running mean.
    ``justification`` names the principle that decided the status.
    """

    pair: tuple[str, str]
    kind: StatusKind
    value: float | None = None
    justification: str = ""

    @property
    def symbol(self) -> str:
        return pair_symbol(*self.pair)

    @property
    def definite(self) -> bool:
        return self.value is not None


_PRIMED = (SYM_EP, SYM_PP)


def _orthogonal(cos_delta):
    """The no-correlation lemma's test; takes a float or an array."""
    return abs(cos_delta) <= ORTHOGONALITY_TOL


def _rule(h: HypothesisSet, a: str, b: str) -> tuple[StatusKind, int, str]:
    """The decision table: (kind, sign of cos(delta) in the value, principle).

    A ZERO_BY_NO_CORRELATION verdict holds only at orthogonal axes; at any
    other angle the pair is BOUNDED by the parity straddle instead.
    """
    needs_realism = a in _PRIMED or b in _PRIMED
    if needs_realism and not h.weak_realism:
        return StatusKind.UNDEFINED, 0, "requires-weak-realism"
    if side_of_symbol(a) is not side_of_symbol(b):
        if not needs_realism:
            return StatusKind.DEFINED, -1, "twisted-malus"
        if a in _PRIMED and b in _PRIMED:
            if h.locality:
                return StatusKind.DEFINED, -1, "locality-mirror"
            return StatusKind.UNDEFINED, 0, "undefined-without-locality"
        if h.locality:
            return StatusKind.DEFINED, -1, "locality-twisted-malus"
        if h.eacp:
            return StatusKind.DEFINED, -1, "eacp-transfer"
        return StatusKind.UNDEFINED, 0, "no-value-transfer-principle"
    # same-side pair: one measured axis, one counterfactual
    if h.locality:
        return StatusKind.DEFINED, 1, "locality-mirror"
    if h.eacp:
        if h.fwp:
            return StatusKind.ZERO_BY_NO_CORRELATION, 0, "no-correlation-lemma"
        return StatusKind.BOUNDED, 0, "parity-straddle"
    return StatusKind.UNDEFINED, 0, "no-value-transfer-principle"


def _value(kind: StatusKind, sign: int, cos_d):
    """The value of a rule outcome ``(kind, sign)`` at cos(delta), a float or
    an array: +/-cos(delta) for a DEFINED pair and the lemma's zero at
    orthogonal axes; NaN wherever no definite value exists.
    """
    if kind is StatusKind.DEFINED:
        return cos_d if sign > 0 else -cos_d
    import numpy as np
    if kind is StatusKind.ZERO_BY_NO_CORRELATION:
        return np.where(_orthogonal(cos_d), 0.0, np.nan)
    return np.full_like(cos_d, np.nan)


class DefinabilityEngine:
    """Decides status and value of each correlation under fixed hypotheses."""

    def __init__(self, hypotheses: HypothesisSet) -> None:
        self.hypotheses = hypotheses

    def status(
        self, a: str, b: str, angles: Mapping[str, float]
    ) -> CorrelationStatus:
        for symbol in (a, b):
            if symbol not in angles:
                raise KeyError(f"no angle supplied for axis {symbol!r}")
        cos_d = math.cos(wrap_angle(wrap_angle(angles[a]) - wrap_angle(angles[b])))
        kind, sign, why = _rule(self.hypotheses, a, b)
        value = float(_value(kind, sign, cos_d))
        if not math.isnan(value):
            return CorrelationStatus((a, b), kind, value, why)
        if kind is StatusKind.ZERO_BY_NO_CORRELATION:  # axes not orthogonal
            kind, why = StatusKind.BOUNDED, "parity-straddle"
        return CorrelationStatus((a, b), kind, None, why)

    def statuses(
        self,
        angles: Mapping[str, float],
        pairs: Iterable[tuple[str, str]] = SIX_PAIRS,
    ) -> list[CorrelationStatus]:
        return [self.status(a, b, angles) for a, b in pairs]

    def definite_statuses(
        self, angles: Mapping[str, float], pairs: Iterable[tuple[str, str]]
    ) -> list[CorrelationStatus]:
        """``statuses``, raising UndefinedCorrelationError unless all are definite."""
        statuses = self.statuses(angles, pairs)
        for st in statuses:
            if not st.definite:
                raise UndefinedCorrelationError(
                    f"{st.symbol} has no definite value under "
                    f"{self.hypotheses.label()} ({st.kind.value})"
                )
        return statuses

    def values(self, angles: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Vectorized definite values for every pair of supplied axes.

        Each pair's value is computed on its two axes' broadcast shape and
        returned as a read-only view of the common shape, NaN where none is
        definite; suitable as the value source of ``falsification_search``.
        cos(delta) is cos a cos b + sin a sin b from each axis's cos and sin,
        clipped to [-1, 1]: within a few ulps of ``status``'s cos of the
        wrapped difference.  Axes given equal arrays share one cos(delta)
        mesh per other axis, and pairs on one mesh with one rule outcome share
        one value array.  ValueError names an axis with a non-finite angle.
        """
        import numpy as np
        symbols = [s for s in (SYM_E, SYM_EP, SYM_P, SYM_PP) if s in angles]
        arrays = {s: np.asarray(angles[s], dtype=np.float64) for s in symbols}
        shape = np.broadcast_shapes(*(x.shape for x in arrays.values()))
        trig: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # distinct axis arrays
        slot: dict[str, int] = {}
        for s, x in arrays.items():
            if not np.isfinite(x).all():
                raise ValueError(f"angle must be finite on axis {s!r}")
            slot[s] = next((k for k, (y, _, _) in enumerate(trig) if np.array_equal(x, y)),
                           len(trig))
            if slot[s] == len(trig):
                trig.append((x, np.cos(x), np.sin(x)))
        meshes: dict[tuple[int, int], np.ndarray] = {}
        shared: dict[tuple, np.ndarray] = {}
        out: dict[str, np.ndarray] = {}
        for i, a in enumerate(symbols):
            for b in symbols[i + 1:]:
                ka, kb = sorted((slot[a], slot[b]))
                kind, sign, _ = _rule(self.hypotheses, a, b)
                if (ka, kb, kind, sign) not in shared:
                    if (ka, kb) not in meshes:
                        (_, ca, sa), (_, cb, sb) = trig[ka], trig[kb]
                        mesh = np.asarray(ca * cb + sa * sb)  # 0-d for scalar axes
                        meshes[ka, kb] = np.clip(mesh, -1.0, 1.0, out=mesh)
                    shared[ka, kb, kind, sign] = np.broadcast_to(
                        _value(kind, sign, meshes[ka, kb]), shape)
                out[pair_symbol(a, b)] = shared[ka, kb, kind, sign]
        return out


class NoCorrelationVerdict(enum.Enum):
    CONSISTENT = "consistent"
    WITNESS = "witness-of-eacp-violation"


@dataclass(frozen=True)
class NoCorrelationReport:
    """Empirical test of the zero prediction for same-side axes."""

    model: str
    theta_e: float
    theta_ep: float
    theta_p: float
    orthogonal: bool
    estimate: CorrelationEstimate
    tolerance: float
    verdict: NoCorrelationVerdict

    def to_dict(self) -> dict:
        lo, hi = self.estimate.interval(self.tolerance)
        return {
            "model": self.model,
            "theta_E": self.theta_e,
            "theta_E'": self.theta_ep,
            "theta_P": self.theta_p,
            "orthogonal_axes": self.orthogonal,
            "n": self.estimate.n,
            "mean": self.estimate.mean,
            "lo": lo,
            "hi": hi,
            "tolerance": self.tolerance,
            "alpha": self.estimate.alpha(self.tolerance),
            "verdict": self.verdict.value,
        }


def no_correlation_check(
    model,
    theta_e: float,
    theta_ep: float,
    theta_p: float,
    n_pairs: int,
    seed: int = 0,
    tolerance: float | None = None,
) -> NoCorrelationReport:
    """Estimate <E,E'> for a model and test it against zero.

    CONSISTENT requires 0 in the estimate's checkpoint interval at the
    tolerance (default ``estimate.default_tol``, 4/sqrt(N)), so
    |mean| <= tolerance; anything else marks
    the model as an EACP-violation witness, for a zero-mean model on at most
    a fraction ``estimate.alpha(tolerance)`` of seeds.  Non-orthogonal axes
    are allowed but flagged, since the zero prediction only covers the
    orthogonal case.
    """
    from .realism import correlate_block
    theta_e, theta_ep, theta_p = map(wrap_angle, (theta_e, theta_ep, theta_p))
    block = Block({SYM_E: theta_e, SYM_EP: theta_ep, SYM_P: theta_p}, count=n_pairs)
    (est,) = correlate_block(model, block, seed, [(SYM_E, SYM_EP)])
    if tolerance is None:
        tolerance = est.default_tol
    lo, hi = est.interval(tolerance)
    ok = lo <= 0.0 <= hi
    return NoCorrelationReport(
        model=getattr(model, "name", type(model).__name__),
        theta_e=theta_e,
        theta_ep=theta_ep,
        theta_p=theta_p,
        orthogonal=_orthogonal(math.cos(wrap_angle(theta_e - theta_ep))),
        estimate=est,
        tolerance=tolerance,
        verdict=(
            NoCorrelationVerdict.CONSISTENT if ok else NoCorrelationVerdict.WITNESS
        ),
    )


def __getattr__(name: str):
    # bench/tracer.py wraps generate_block here; ROADMAP item 1 deletes this hook.
    if name == "generate_block":
        from .realism import generate_block
        return generate_block
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
