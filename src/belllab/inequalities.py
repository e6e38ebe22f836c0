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
``feasible_triple``/``feasible_quad`` decide from the facets of the local
polytope, in closed form, whether a correlation target admits any joint
+/-1 distribution at all, and
``falsification_search`` scans angle configurations for the strongest
falsification a value source (the hypothesis-definability engine) can
support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import fsum
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import SYM_E, SYM_EP, SYM_P, SYM_PP, OutcomeSequence, pair_symbol, product_sum
from .core import keep_heap_mapped, sica_v3_slack, sica_v4_margin

if TYPE_CHECKING:
    import numpy as np

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
# A target counts as inside the local polytope up to this slack, and the
# search's local scan steps at grid_step / SEARCH_REFINEMENT.
FEASIBILITY_TOL = 1e-9
SEARCH_REFINEMENT = 10
# Angles per axis a search's full-circle scan may hold: steps of 0.1 degree.
# A V4 search at the cap peaks at 227 MiB RSS and takes 0.21-0.25 s on a
# 2-vCPU machine; memory grows with its square.
SEARCH_MAX_ANGLES = 3600


def _product_sums(*pairs: tuple[OutcomeSequence, OutcomeSequence]) -> tuple[int, list[int]]:
    """N and the exact product sum of each pair of sequences, all of length N > 0."""
    import numpy as np
    n = len(pairs[0][0])
    if n == 0:
        raise ValueError("sequences must be non-empty")
    for s in itertools.chain(*pairs):
        if len(s) != n:
            raise ValueError(f"length mismatch: {n} vs {len(s)}")
    return n, [product_sum(n, int(np.count_nonzero(u.values != v.values))) for u, v in pairs]


def sica_v3_check(
    x: OutcomeSequence, y: OutcomeSequence, z: OutcomeSequence
) -> float:
    """Slack of the three-sequence identity: (1 - Syz/N) - |Sxy/N - Sxz/N|.

    Computed from exact integer sums; non-negative for every actual triple.
    """
    n, sums = _product_sums((x, y), (x, z), (y, z))
    return sica_v3_slack(n, *sums)


def sica_v4_check(
    w: OutcomeSequence, x: OutcomeSequence, y: OutcomeSequence, z: OutcomeSequence
) -> float:
    """Margin of the four-sequence identity: 2 - (|Sxy + Sxz| + |Swy - Swz|)/N.

    Computed from exact integer sums; non-negative for every actual quadruple.
    """
    n, sums = _product_sums((x, y), (x, z), (w, y), (w, z))
    return sica_v4_margin(n, *sums)


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
    the targets within ``FEASIBILITY_TOL``.  ``max_violation`` is the
    smallest uniform slack that would have to be granted on the correlation
    constraints for a distribution to exist (0 when the target is inside the
    polytope), and ``feasible`` is ``max_violation <= FEASIBILITY_TOL``.
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
    """``scipy.optimize.linprog``, imported on the first call.  No belllab code
    calls it any more; it stays for code that wraps this name."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# The atoms' correlation vectors (Fine, PRL 48, 291 (1982)).  A quadruple's
# are +/- the rows h of a Hadamard matrix H (H H^T = 4I): a cross-polytope,
# sum |h.c|/4 <= 1, cut out by the box and the 8 CHSH facets s.c <= 2.  A
# triple's are the rows of H without its first column, the sign vectors v with
# v1 v2 v3 = 1: a tetrahedron (sum v v^T = 4I) with facets 1 + v.c >= 0.  Each
# dot product is one correctly rounded fsum, written out per row: its bits do
# not depend on a BLAS kernel, and a generic loop over the rows is slower.
_HADAMARD = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
_CHSH = tuple(tuple(sign - 2 * sign * (i == k) for i in range(4))
              for sign in (1, -1) for k in range(4))  # rows s = 1 - 2 e_k, then -s


def _hadamard_rows(w: float, x: float, y: float, z: float) -> tuple[tuple[float, ...], ...]:
    """The terms of each row of H c for c = (w, x, y, z); as H is symmetric,
    also of each column of H^T c.  With w = 0 the rows are v.c for the triple."""
    return (w, x, y, z), (w, -x, y, -z), (w, x, -y, -z), (w, -x, -y, z)


def _atom_table(n_vars: int, pair_slots, vertices):
    """Atoms in product order and the atom realizing each vertex: of an atom
    and its negation, the one whose first variable is +1."""
    atoms = tuple(itertools.product((-1, 1), repeat=n_vars))
    products = [tuple(a[i] * a[j] for i, j in pair_slots) for a in atoms]
    return atoms, [max(k for k, p in enumerate(products) if p == v) for v in vertices]


_TRIPLE = _atom_table(3, ((0, 1), (0, 2), (1, 2)), [h[1:] for h in _HADAMARD])
_QUAD = _atom_table(4, ((1, 2), (1, 3), (0, 2), (0, 3)),
                    [*_HADAMARD, *(tuple(-x for x in h) for h in _HADAMARD)])


def _targets(values: Sequence[float]) -> list[float]:
    return [_check_corr(f"target[{i}]", t) for i, t in enumerate(values)]


def _result(table, slack: float, weights, correlations) -> FeasibilityResult:
    """Feasibility from the optimum t of  min t  s.t.  |A p - c| <= t, sum p = 1,
    p >= 0.  A target in the box violates at most one facet f; t = max(0, its
    excess over |f|_1) bounds the optimum from below, and ``weights``, of c
    moved by t along -sign(f) onto f, reach it with A p = ``correlations``."""
    atoms, index = table
    witness = [0.0] * len(atoms)
    for k, weight in zip(index, weights):
        witness[k] = weight
    return FeasibilityResult(feasible=slack <= FEASIBILITY_TOL, witness=tuple(witness),
                             max_violation=slack, atoms=atoms,
                             correlations=tuple(correlations))


def feasible_triple(c_xy: float, c_xz: float, c_yz: float) -> FeasibilityResult:
    """Does any joint distribution over (x, y, z) in {-1,+1}^3 have these
    three pairwise correlations, within ``FEASIBILITY_TOL``?  The witness
    holds the barycentric weights (1 + v.c)/4 of the target, moved onto the
    violated facet if any."""
    c = _targets([c_xy, c_xz, c_yz])
    dots = [fsum(r) for r in _hadamard_rows(0.0, *c)]
    low = min(dots)
    slack = max(0.0, (-1.0 - low) / 3.0)
    moved = (t + slack * s for t, s in zip(c, _HADAMARD[dots.index(low)][1:]))
    weights = [max((1.0 + fsum(r)) / 4.0, 0.0) for r in _hadamard_rows(0.0, *moved)]
    _, *rows = _hadamard_rows(*weights)  # sum w_k v_k: the v are H's columns 1-3
    return _result(_TRIPLE, slack, weights, [fsum(r) for r in rows])


def feasible_quad(c_xy: float, c_xz: float, c_wy: float, c_wz: float) -> FeasibilityResult:
    """Does any joint distribution over (w, x, y, z) in {-1,+1}^4 have these
    four cross correlations (the CHSH set), within ``FEASIBILITY_TOL``?  The
    witness puts |h.c|/4 on sign(h.c) h for each Hadamard row h, at the target
    moved onto the violated CHSH facet if any, and splits the mass left over
    between +h_0 and -h_0."""
    c = _targets([c_xy, c_xz, c_wy, c_wz])
    a, b, d, e = c
    chsh = [fsum((-a, b, d, e)), fsum((a, -b, d, e)), fsum((a, b, -d, e)), fsum((a, b, d, -e))]
    chsh += [-x for x in chsh]  # s.c for the rows s of _CHSH
    high = max(chsh)
    slack = max(0.0, (high - 2.0) / 4.0)
    moved = (t - slack * s for t, s in zip(c, _CHSH[chsh.index(high)]))
    mu = [fsum(r) / 4.0 for r in _hadamard_rows(*moved)]
    rest = (1.0 - fsum(abs(m) for m in mu)) / 2.0
    weights = [max(m, 0.0) for m in mu] + [max(-m, 0.0) for m in mu]
    for k in (0, 4):
        weights[k] = max(weights[k] + rest, 0.0)
    # sum (p_k - q_k) h_k for the weights p on +h and q on -h, eight terms a column
    plus, minus = _hadamard_rows(*weights[:4]), _hadamard_rows(*(-q for q in weights[4:]))
    return _result(_QUAD, slack, weights, [fsum(p + q) for p, q in zip(plus, minus)])


# A value source maps {symbol: angle array}, broadcast-compatible arrays, to
# {pair key: value array}, each of their common shape and NaN wherever no
# definite value exists under the source's hypotheses.  Each pair's value must
# depend only on that pair's two angles, as in ``DefinabilityEngine.values``;
# ``falsification_search`` relies on it to maximize each term over its axis.
ValueSource = Callable[[Mapping[str, "np.ndarray"]], Mapping[str, "np.ndarray"]]


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
    of ``terms`` minus ``offset``.  A term ``(row, pairs, fn)`` is
    ``fn(out, *correlations)`` of the correlations of ``pairs``, which vary
    only with axis ``row`` and the ``shared`` axis; ``fn`` builds the term in
    the fresh array ``out`` and returns it.  ``pinned`` is the reference axis
    held at zero.
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


def _v3_term(out, xy, xz, yz):
    """|xy - xz| - (1 - yz), in ``out``."""
    import numpy as np
    np.abs(np.subtract(xy, xz, out=out), out=out)
    return np.subtract(out, 1.0 - yz, out=out)


def _abs_sum(out, c1, c2):
    """|c1 + c2|, in ``out``."""
    import numpy as np
    return np.abs(np.add(c1, c2, out=out), out=out)


def _abs_difference(out, c3, c4):
    """|c3 - c4|, in ``out``."""
    import numpy as np
    return np.abs(np.subtract(c3, c4, out=out), out=out)


_SEARCH_SPECS = {
    "V3": _SearchSpec(
        terms=((SYM_E, V3_PAIRS, _v3_term),),
        shared=SYM_EP,
        pinned=SYM_P,
        offset=0.0,
        evaluate=eval_v3,
        reason="no configuration defines all of "
        f"{', '.join(pair_symbol(*p) for p in V3_PAIRS)} under these hypotheses",
    ),
    "V4": _SearchSpec(
        terms=((SYM_E, V4_PAIRS[:2], _abs_sum), (SYM_EP, V4_PAIRS[2:], _abs_difference)),
        shared=SYM_P,
        pinned=SYM_PP,
        offset=2.0,
        evaluate=eval_v4,
        reason=f"{pair_symbol(SYM_EP, SYM_PP)} undefined under these hypotheses",
    ),
}


def _natural(a: np.ndarray) -> np.ndarray:
    """``a`` with every broadcast (stride-0) axis cut to length 1."""
    return a[tuple(slice(None) if stride else slice(1) for stride in a.strides)]


def _scan(
    spec: _SearchSpec, value_source: ValueSource, grids: Sequence[np.ndarray]
) -> tuple[float, tuple[float, ...]] | None:
    """Best objective over the product of ``grids``, one per ``spec.free`` axis.

    One value-source call covers a rows x shared mesh: row axes (all of equal
    length) as columns, the shared axis as a row.  No term reads another's row
    axis, so each is maximized over its rows alone.  Each term is built in one
    fresh rows x shared array from its values' natural shapes and reduced
    before the next is built, so one such array lives beside the values';
    the winning column of each is then recomputed from column j of its
    values.  None when nothing is defined.
    """
    import numpy as np
    *row_grids, shared = grids
    angles = {spec.pinned: np.zeros((1, 1)), spec.shared: shared[None, :]}
    for (row, _, _), grid in zip(spec.terms, row_grids):
        angles[row] = grid[:, None]
    values = value_source(angles)
    terms = [(fn, [values[pair_symbol(*p)] for p in pairs]) for _, pairs, fn in spec.terms]
    shape = (len(row_grids[0]), len(shared))
    # fmax skips NaN without nanmax's all-NaN warning.  Float addition is
    # monotone: the sum of maxima rounds as the objective at its maximizer.
    maxima = [np.fmax.reduce(fn(np.empty(shape), *map(_natural, args)), axis=0)
              for fn, args in terms]
    total = np.sum(maxima, axis=0) - spec.offset
    if np.all(np.isnan(total)):
        return None
    j = int(np.nanargmax(total))
    rows = (float(g[int(np.nanargmax(fn(np.empty(shape[0]), *(v[:, j] for v in args))))])
            for (fn, args), g in zip(terms, row_grids))
    return float(total[j]), (*rows, float(shared[j]))


def _grid(center: float, half_width: float, step: float) -> np.ndarray:
    import numpy as np
    k = int(math.ceil(half_width / step))
    return center + step * np.arange(-k, k + 1)


def falsification_search(
    version: str, value_source: ValueSource, grid_step: float = math.pi / 180.0
) -> SearchOutcome:
    """Scan angle configurations for the strongest inequality falsification.

    Correlation values are taken only where the value source defines them;
    configurations with any required value undefined are skipped.  Because
    the values depend only on angle differences, one reference angle is
    pinned to zero (theta_P for V3, theta_P' for V4) without loss.  As each
    pair's value depends only on its own two angles, a scan of G angles per
    axis is one value-source call on a G x G mesh, for V4 as for V3.  A
    coarse full-circle scan at ``grid_step`` is followed by one local scan
    at ``grid_step / SEARCH_REFINEMENT`` over one coarse step around its best
    point.

    Returns a non-found outcome with a reason when no configuration has all
    required correlations defined.  Raises ValueError, before any array is
    built, for an unknown version, a ``grid_step`` that is not positive and
    finite, one of 4*pi or more (no angle on the circle) and one that puts
    more than ``SEARCH_MAX_ANGLES`` angles on the circle.
    """
    import numpy as np
    keep_heap_mapped()
    version = version.upper()
    if version not in _SEARCH_SPECS:
        raise ValueError(f"version must be 'V3' or 'V4', got {version!r}")
    spec = _SEARCH_SPECS[version]
    if not 0 < grid_step < math.inf:  # also rejects NaN
        raise ValueError(f"grid_step must be positive and finite, got {grid_step!r}")
    start, stop = -math.pi + grid_step, math.pi + grid_step / 2
    count = (stop - start) / grid_step  # np.arange's length before it rounds up
    if not count > 0:
        raise ValueError(f"grid_step {grid_step!r} puts no angle on the circle; "
                         f"it must be below 4*pi = {4 * math.pi!r}")
    if count > SEARCH_MAX_ANGLES:
        raise ValueError(f"grid_step {grid_step!r} puts {count:.6g} angles on the circle, "
                         f"above the limit of {SEARCH_MAX_ANGLES}; use a step of at least "
                         f"2*pi/{SEARCH_MAX_ANGLES} = {2 * math.pi / SEARCH_MAX_ANGLES!r}")
    full = np.arange(start, stop, grid_step)
    coarse = _scan(spec, value_source, [full] * len(spec.free))
    if coarse is None:
        return SearchOutcome(version=version, found=False, reason=spec.reason)
    fine = [_grid(t, grid_step, grid_step / SEARCH_REFINEMENT) for t in coarse[1]]
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
