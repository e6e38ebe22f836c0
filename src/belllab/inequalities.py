"""Finite-N Bell identities, inequality evaluation, and polytope feasibility.

For any equal-length +/-1 sequences the factorizations

    x*y - x*z = x*y*(1 - y*z)             (three sequences)
    x*(y + z) + w*(y - z),  with min(|y+z|, |y-z|) = 0 and max = 2

force, exactly and at every finite N,

    |Sxy - Sxz| <= N - Syz                       (three-sequence check)
    |Sxy + Sxz| + |Swy - Swz| <= 2N              (four-sequence check)

where Suv is the integer sum of pairwise products.  These are arithmetic
identities: any actual triple or quadruple of sequences satisfies them, no
matter how it was produced.  The asymptotic forms

    |<x,y> - <x,z>| <= 1 - <y,z>                 (V3)
    |<x,y> + <x,z>| + |<w,y> - <w,z>| <= 2       (V4, CHSH)

can nevertheless be *falsified* by correlation values that no single run
of sequences realizes -- that is the content of every Bell-type theorem.
``feasible_triple``/``feasible_quad`` decide by linear programming whether
a correlation target admits any joint +/-1 distribution at all, and
``falsification_search`` scans angle configurations for the strongest
falsification a value source (the hypothesis-definability engine) can
support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import SYM_E, SYM_EP, SYM_P, SYM_PP, OutcomeSequence, pair_symbol

__all__ = [
    "FeasibilityResult",
    "SearchOutcome",
    "V3Report",
    "V4Report",
    "eval_v3",
    "eval_v4",
    "falsification_search",
    "feasible_quad",
    "feasible_triple",
    "product_sum",
    "sica_v3_check",
    "sica_v3_slack",
    "sica_v4_check",
    "sica_v4_margin",
]

# Correlation pairs appearing in each inequality, in report order.  The
# sequence slots map to axes as x = E, y = P, z = E' (V3, two axes on
# Alice's side) and x = E, y = P, w = E', z = P' (V4).
V3_PAIRS = ((SYM_E, SYM_P), (SYM_E, SYM_EP), (SYM_P, SYM_EP))
V4_PAIRS = ((SYM_E, SYM_P), (SYM_E, SYM_PP), (SYM_EP, SYM_P), (SYM_EP, SYM_PP))


def _values(*seqs: OutcomeSequence) -> tuple[int, list[np.ndarray]]:
    n = len(seqs[0])
    if n == 0:
        raise ValueError("sequences must be non-empty")
    for s in seqs:
        if len(s) != n:
            raise ValueError(f"length mismatch: {n} vs {len(s)}")
    return n, [s.values for s in seqs]


def product_sum(u: np.ndarray, v: np.ndarray) -> int:
    """Exact sum of u*v over +/-1 arrays: agreements minus disagreements."""
    return u.size - 2 * int(np.count_nonzero(u != v))


def sica_v3_slack(n: int, s_xy: int, s_xz: int, s_yz: int) -> float:
    """Slack of the three-sequence identity from N and its exact product sums,
    which a streamed run adds up chunk by chunk."""
    return ((n - s_yz) - abs(s_xy - s_xz)) / n


def sica_v4_margin(n: int, s_xy: int, s_xz: int, s_wy: int, s_wz: int) -> float:
    """Margin of the four-sequence identity from N and its exact product sums."""
    return (2 * n - abs(s_xy + s_xz) - abs(s_wy - s_wz)) / n


def sica_v3_check(
    x: OutcomeSequence, y: OutcomeSequence, z: OutcomeSequence
) -> float:
    """Slack of the three-sequence identity: (1 - Syz/N) - |Sxy/N - Sxz/N|.

    Computed from exact integer sums; non-negative for every actual triple.
    """
    n, (xa, ya, za) = _values(x, y, z)
    return sica_v3_slack(n, product_sum(xa, ya), product_sum(xa, za), product_sum(ya, za))


def sica_v4_check(
    w: OutcomeSequence, x: OutcomeSequence, y: OutcomeSequence, z: OutcomeSequence
) -> float:
    """Margin of the four-sequence identity: 2 - (|Sxy + Sxz| + |Swy - Swz|)/N.

    Computed from exact integer sums; non-negative for every actual quadruple.
    """
    n, (wa, xa, ya, za) = _values(w, x, y, z)
    s_xy, s_xz = product_sum(xa, ya), product_sum(xa, za)
    return sica_v4_margin(n, s_xy, s_xz, product_sum(wa, ya), product_sum(wa, za))


def _check_corr(name: str, value: float) -> float:
    value = float(value)
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"{name} out of range [-1, 1]: {value}")
    return value


@dataclass(frozen=True)
class V3Report:
    """Evaluation of |c_xy - c_xz| <= 1 - c_yz on given correlation values."""

    c_xy: float
    c_xz: float
    c_yz: float
    lhs: float
    rhs: float
    slack: float
    violated: bool

    @property
    def excess(self) -> float:
        """Amount by which the inequality fails (0 when satisfied)."""
        return max(-self.slack, 0.0)

    def to_dict(self) -> dict:
        return {
            "version": "V3",
            "c_xy": self.c_xy,
            "c_xz": self.c_xz,
            "c_yz": self.c_yz,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "violated": self.violated,
        }


@dataclass(frozen=True)
class V4Report:
    """Evaluation of |c1 + c2| + |c3 - c4| <= 2 on given correlation values."""

    c1: float
    c2: float
    c3: float
    c4: float
    s: float
    violated: bool

    @property
    def excess(self) -> float:
        return max(self.s - 2.0, 0.0)

    def to_dict(self) -> dict:
        return {
            "version": "V4",
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c4": self.c4,
            "S": self.s,
            "violated": self.violated,
        }


def eval_v3(c_xy: float, c_xz: float, c_yz: float) -> V3Report:
    """Evaluate the three-correlation inequality on (possibly merely
    hypothesized) correlation values; a negative slack is a falsification."""
    c_xy = _check_corr("c_xy", c_xy)
    c_xz = _check_corr("c_xz", c_xz)
    c_yz = _check_corr("c_yz", c_yz)
    lhs = abs(c_xy - c_xz)
    rhs = 1.0 - c_yz
    slack = rhs - lhs
    return V3Report(
        c_xy=c_xy, c_xz=c_xz, c_yz=c_yz,
        lhs=lhs, rhs=rhs, slack=slack, violated=slack < 0.0,
    )


def eval_v4(c1: float, c2: float, c3: float, c4: float) -> V4Report:
    """Evaluate the CHSH combination S = |c1 + c2| + |c3 - c4| against 2."""
    c1 = _check_corr("c1", c1)
    c2 = _check_corr("c2", c2)
    c3 = _check_corr("c3", c3)
    c4 = _check_corr("c4", c4)
    s = abs(c1 + c2) + abs(c3 - c4)
    return V4Report(c1=c1, c2=c2, c3=c3, c4=c4, s=s, violated=s > 2.0)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a local-polytope membership test.

    ``witness`` is a distribution over the deterministic +/-1 assignments
    (8 atoms for a triple, 16 for a quadruple); when ``feasible`` it matches
    the targets within tolerance.  ``max_violation`` is the smallest uniform
    slack that would have to be granted on the correlation constraints for a
    distribution to exist (0 when the target is inside the polytope).
    """

    feasible: bool
    witness: tuple[float, ...]
    max_violation: float
    atoms: tuple[tuple[int, ...], ...]
    correlations: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "max_violation": self.max_violation,
            "witness": list(self.witness),
            "atoms": [list(a) for a in self.atoms],
            "witness_correlations": list(self.correlations),
        }


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing scipy takes most of the package's start-up time and only the
    feasibility LP needs it.  ``_feasibility`` looks the name up in this
    module at each call, so a caller may replace the attribute to wrap it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _feasibility(
    targets: Sequence[float],
    n_vars: int,
    pair_slots: Sequence[tuple[int, int]],
    tol: float,
) -> FeasibilityResult:
    """Chebyshev-fit a distribution over deterministic assignments.

    minimize t  s.t.  |A p - targets| <= t,  sum p = 1,  p >= 0
    where row k of A holds the product of the two slots of pair k for each
    deterministic +/-1 assignment.  Feasible iff the optimum t is ~0.
    """
    targets = [_check_corr(f"target[{i}]", t) for i, t in enumerate(targets)]
    atoms = tuple(itertools.product((-1, 1), repeat=n_vars))
    n_atoms = len(atoms)
    a_rows = np.array(
        [[atom[i] * atom[j] for atom in atoms] for i, j in pair_slots],
        dtype=float,
    )
    n_pairs = len(pair_slots)
    # variables: p_0..p_{n_atoms-1}, t
    c = np.zeros(n_atoms + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n_pairs, n_atoms + 1))
    b_ub = np.zeros(2 * n_pairs)
    a_ub[:n_pairs, :n_atoms] = a_rows
    a_ub[:n_pairs, -1] = -1.0
    b_ub[:n_pairs] = targets
    a_ub[n_pairs:, :n_atoms] = -a_rows
    a_ub[n_pairs:, -1] = -1.0
    b_ub[n_pairs:] = [-t for t in targets]
    a_eq = np.zeros((1, n_atoms + 1))
    a_eq[0, :n_atoms] = 1.0
    bounds = [(0.0, 1.0)] * n_atoms + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    witness = tuple(max(float(p), 0.0) for p in res.x[:n_atoms])
    max_violation = float(res.x[-1])
    achieved = tuple(float(v) for v in a_rows @ np.array(witness))
    return FeasibilityResult(
        feasible=max_violation <= tol,
        witness=witness,
        max_violation=max_violation,
        atoms=atoms,
        correlations=achieved,
    )


def feasible_triple(
    c_xy: float, c_xz: float, c_yz: float, tol: float = 1e-9
) -> FeasibilityResult:
    """Does any joint distribution over (x, y, z) in {-1,+1}^3 have these
    three pairwise correlations?"""
    return _feasibility([c_xy, c_xz, c_yz], 3, [(0, 1), (0, 2), (1, 2)], tol)


def feasible_quad(
    c_xy: float, c_xz: float, c_wy: float, c_wz: float, tol: float = 1e-9
) -> FeasibilityResult:
    """Does any joint distribution over (w, x, y, z) in {-1,+1}^4 have these
    four cross correlations (the CHSH set)?"""
    return _feasibility(
        [c_xy, c_xz, c_wy, c_wz], 4, [(1, 2), (1, 3), (0, 2), (0, 3)], tol
    )


# A value source maps {symbol: angle array} to {pair key: value array},
# with NaN wherever no definite value exists under the source's hypotheses.
# Each pair's value must depend only on that pair's two angles, as in
# ``DefinabilityEngine.values``; ``falsification_search`` relies on it to
# maximize each term of an objective over its own axis.
ValueSource = Callable[[Mapping[str, np.ndarray]], Mapping[str, np.ndarray]]


@dataclass(frozen=True)
class SearchOutcome:
    """Best configuration found by ``falsification_search``."""

    version: str
    found: bool
    reason: str | None = None
    angles: dict[str, float] | None = None
    correlations: dict[str, float] | None = None
    violation: float | None = None
    report: "V3Report | V4Report | None" = field(default=None)

    def to_dict(self) -> dict:
        out: dict = {"version": self.version, "found": self.found}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.found:
            out["angles"] = self.angles
            out["correlations"] = self.correlations
            out["violation"] = self.violation
            out["report"] = self.report.to_dict() if self.report else None
        return out


@dataclass(frozen=True)
class _SearchSpec:
    """One inequality as ``falsification_search`` sees it.

    The objective, positive exactly where the inequality fails, is the sum
    of ``terms`` minus ``offset``.  A term ``(row, pairs, fn)`` is ``fn`` of
    the correlations of ``pairs``, which vary only with axis ``row`` and the
    ``shared`` axis; ``pinned`` is the reference axis held at zero.
    ``evaluate`` takes the correlations of all terms' pairs in order.
    """

    terms: tuple[tuple[str, tuple[tuple[str, str], ...], Callable], ...]
    shared: str
    pinned: str
    offset: float
    evaluate: Callable[..., "V3Report | V4Report"]
    reason: str

    @property
    def free(self) -> tuple[str, ...]:  # each term's row axis, then the shared one
        return (*(row for row, _, _ in self.terms), self.shared)


_SEARCH_SPECS = {
    "V3": _SearchSpec(
        terms=((SYM_E, V3_PAIRS, lambda xy, xz, yz: np.abs(xy - xz) - (1.0 - yz)),),
        shared=SYM_EP,
        pinned=SYM_P,
        offset=0.0,
        evaluate=eval_v3,
        reason="no configuration defines all of "
        f"{', '.join(pair_symbol(*p) for p in V3_PAIRS)} under these hypotheses",
    ),
    "V4": _SearchSpec(
        terms=((SYM_E, V4_PAIRS[:2], lambda c1, c2: np.abs(c1 + c2)),
               (SYM_EP, V4_PAIRS[2:], lambda c3, c4: np.abs(c3 - c4))),
        shared=SYM_P,
        pinned=SYM_PP,
        offset=2.0,
        evaluate=eval_v4,
        reason=f"{pair_symbol(SYM_EP, SYM_PP)} undefined under these hypotheses",
    ),
}


def _scan(
    spec: _SearchSpec, value_source: ValueSource, grids: Sequence[np.ndarray]
) -> tuple[float, tuple[float, ...]] | None:
    """Best objective over the product of ``grids``, one per ``spec.free`` axis.

    One value-source call covers a rows x shared mesh, with every row axis
    (all of equal length) down the rows.  No term reads another's row axis,
    so each is maximized over its rows alone.  None when nothing is defined.
    """
    *row_grids, shared = grids
    shape = (len(row_grids[0]), len(shared))
    angles = {spec.pinned: np.zeros(shape),
              spec.shared: np.broadcast_to(shared, shape)}
    for (row, _, _), grid in zip(spec.terms, row_grids):
        angles[row] = np.broadcast_to(grid[:, None], shape)
    values = value_source(angles)
    terms = [fn(*(values[pair_symbol(*p)] for p in pairs))
             for _, pairs, fn in spec.terms]
    # fmax skips NaN without nanmax's all-NaN warning.  Float addition is
    # monotone: the sum of maxima rounds as the objective at its maximizer.
    total = np.sum([np.fmax.reduce(t, axis=0) for t in terms], axis=0) - spec.offset
    if np.all(np.isnan(total)):
        return None
    j = int(np.nanargmax(total))
    rows = (float(g[int(np.nanargmax(t[:, j]))]) for t, g in zip(terms, row_grids))
    return float(total[j]), (*rows, float(shared[j]))


def _grid(center: float, half_width: float, step: float) -> np.ndarray:
    k = int(math.ceil(half_width / step))
    return center + step * np.arange(-k, k + 1)


def falsification_search(
    version: str,
    value_source: ValueSource,
    grid_step: float = math.pi / 180.0,
    refinement: int = 10,
) -> SearchOutcome:
    """Scan angle configurations for the strongest inequality falsification.

    Correlation values are taken only where the value source defines them;
    configurations with any required value undefined are skipped.  Because
    the values depend only on angle differences, one reference angle is
    pinned to zero (theta_P for V3, theta_P' for V4) without loss.  As each
    pair's value depends only on its own two angles, a scan of G angles per
    axis is one value-source call of G x G points, for V4 as for V3.  A
    coarse full-circle scan at ``grid_step`` is followed by one local
    refinement at ``grid_step / refinement``.

    Returns a non-found outcome with a reason when no configuration has all
    required correlations defined.
    """
    version = version.upper()
    if version not in _SEARCH_SPECS:
        raise ValueError(f"version must be 'V3' or 'V4', got {version!r}")
    spec = _SEARCH_SPECS[version]
    full = np.arange(-math.pi + grid_step, math.pi + grid_step / 2, grid_step)
    coarse = _scan(spec, value_source, [full] * len(spec.free))
    if coarse is None:
        return SearchOutcome(version=version, found=False, reason=spec.reason)
    fine = [_grid(t, grid_step, grid_step / refinement) for t in coarse[1]]
    refined = _scan(spec, value_source, fine)
    value, best = refined if refined is not None else coarse
    angles = {**dict(zip(spec.free, best)), spec.pinned: 0.0}
    values = value_source({k: np.array([v]) for k, v in angles.items()})
    corr = {k: float(v[0]) for k, v in values.items()}
    pairs = [p for _, term_pairs, _ in spec.terms for p in term_pairs]
    report = spec.evaluate(*(corr[pair_symbol(*p)] for p in pairs))
    return SearchOutcome(
        version=version, found=True, angles=angles,
        correlations=corr, violation=value, report=report,
    )
