"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the status lines.
All tolerances are pinned here: 1e-12 on analytic paths, 0.01 on the
headline Monte Carlo checks at N = 10^6, 4/sqrt(N) on two-point functions,
1e-9 on feasibility witnesses, exact integer arithmetic on the finite-run
identities.
"""

import itertools
import math
import time

import numpy as np
import pytest

from belllab.core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    OutcomeSequence,
    correlate,
)
from belllab.inequalities import (
    eval_v3,
    eval_v4,
    falsification_search,
    feasible_triple,
    sica_v3_check,
    sica_v4_check,
)
from belllab.quantum import SingletSource
from belllab.realism import CollapseSequential, LHVSign, generate_block
from belllab.relativity import (
    DefinabilityEngine,
    HypothesisSet,
    SpacetimeEvent,
    StatusKind,
    boosted_order,
    find_observer,
    no_correlation_check,
)

SQRT2 = math.sqrt(2.0)
N_MC = 1_000_000
ANALYTIC_TOL = 1e-12
MC_TOL = 0.01

V3_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}
V4_ANGLES = {
    SYM_E: math.pi / 4,
    SYM_EP: 3 * math.pi / 4,
    SYM_P: math.pi / 2,
    SYM_PP: 0.0,
}


def _passed(line):
    print(f"[PASS] {line}")


def test_criterion_1_v3_falsification_under_eacp_fwp():
    start = time.perf_counter()
    engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP"))
    c_pe, c_pep, c_eep = (st.value for st in engine.definite_statuses(
        V3_ANGLES, [(SYM_P, SYM_E), (SYM_P, SYM_EP), (SYM_E, SYM_EP)]))
    # the engine's triple (<P,E>, <E',P>, <E,E'>) = (sqrt2/2, sqrt2/2, 0)
    assert abs(c_pe - SQRT2 / 2) <= ANALYTIC_TOL
    assert abs(c_pep - SQRT2 / 2) <= ANALYTIC_TOL
    assert c_eep == 0.0

    report = eval_v3(c_pe, c_eep, c_pep)
    assert report.violated
    # reduces to sqrt(2) <= 1: lhs = sqrt2/2, rhs = 1 - sqrt2/2
    assert abs(report.lhs - SQRT2 / 2) <= ANALYTIC_TOL
    assert abs(report.rhs - (1 - SQRT2 / 2)) <= ANALYTIC_TOL
    assert abs(report.excess - (SQRT2 - 1)) <= ANALYTIC_TOL

    block = Block(V3_ANGLES, count=N_MC)
    assignment = generate_block(CollapseSequential(), block, seed=0)
    mc_pe = correlate(assignment[SYM_P], assignment[SYM_E]).mean
    mc_pep = correlate(assignment[SYM_P], assignment[SYM_EP]).mean
    assert abs(mc_pe - SQRT2 / 2) <= MC_TOL
    assert abs(mc_pep - SQRT2 / 2) <= MC_TOL

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(
        "criterion 1: V3 triple (0.7071, 0.7071, 0) exact to 1e-12, reduces to "
        f"sqrt(2) <= 1 with excess {report.excess:.6f}; monte carlo "
        f"({mc_pe:.4f}, {mc_pep:.4f}) within 0.01 at N=10^6 in {elapsed:.2f}s"
    )


def test_criterion_2_v4_chsh_falsification_under_locality():
    engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
    pairs = ((SYM_E, SYM_P), (SYM_E, SYM_PP), (SYM_EP, SYM_P), (SYM_EP, SYM_PP))
    values = [st.value for st in engine.definite_statuses(V4_ANGLES, pairs)]
    report = eval_v4(*values)
    assert report.violated
    assert abs(report.s - 2 * SQRT2) <= ANALYTIC_TOL

    mc = []
    for k, (alice, bob) in enumerate(pairs):
        block = Block(
            {alice: V4_ANGLES[alice], bob: V4_ANGLES[bob]}, count=N_MC, index=k
        )
        a, b = SingletSource().sample_pairs(block, 0)
        mc.append(float(np.mean(a.astype(np.int64) * b)))
    s_mc = abs(mc[0] + mc[1]) + abs(mc[2] - mc[3])
    assert abs(s_mc - 2 * SQRT2) <= MC_TOL
    _passed(
        f"criterion 2: CHSH S analytic {report.s:.12f} = 2*sqrt(2) to 1e-12; "
        f"monte carlo S = {s_mc:.4f} within 0.01 at N=10^6"
    )


def test_criterion_3_identity_guarantee_exact():
    rng = np.random.default_rng(2718)
    failures = 0
    cases = 10_000
    for _ in range(cases):
        n = int(rng.integers(1, 257))
        x, y, z = (OutcomeSequence(rng.choice([-1, 1], n)) for _ in range(3))
        if sica_v3_check(x, y, z) < 0.0:
            failures += 1
        n = int(rng.integers(1, 257))
        w, x, y, z = (OutcomeSequence(rng.choice([-1, 1], n)) for _ in range(4))
        if sica_v4_check(w, x, y, z) < 0.0:
            failures += 1
    assert failures == 0
    _passed(
        f"criterion 3: {cases} random triples + {cases} quadruples (N in [1,256]) "
        "satisfy both finite-run identities exactly, zero failures"
    )


def test_criterion_4_lhv_never_violates_and_matches_closed_form():
    model = LHVSign()
    grid = np.arange(0.0, math.pi + math.pi / 180, math.pi / 90)
    n_grid = 2048
    checked = 0
    for seed in range(10):
        for k, phi in enumerate(map(float, grid)):
            b3 = Block(
                {SYM_P: 0.0, SYM_E: phi, SYM_EP: 2 * phi}, count=n_grid, index=2 * k
            )
            a3 = generate_block(model, b3, seed)
            assert sica_v3_check(a3[SYM_E], a3[SYM_P], a3[SYM_EP]) >= 0.0
            b4 = Block(
                {SYM_E: phi, SYM_EP: 3 * phi, SYM_P: 2 * phi, SYM_PP: 0.0},
                count=n_grid,
                index=2 * k + 1,
            )
            a4 = generate_block(model, b4, seed)
            assert sica_v4_check(a4[SYM_EP], a4[SYM_E], a4[SYM_P], a4[SYM_PP]) >= 0.0
            # the float evaluation of the same inequalities stays above
            # rounding noise
            v3 = eval_v3(
                correlate(a3[SYM_E], a3[SYM_P]).mean,
                correlate(a3[SYM_E], a3[SYM_EP]).mean,
                correlate(a3[SYM_P], a3[SYM_EP]).mean,
            )
            assert v3.slack >= -1e-12
            checked += 1

    tol = 4.0 / math.sqrt(N_MC)
    deltas = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    for i, delta in enumerate(deltas):
        block = Block(
            {SYM_E: 0.0, SYM_EP: delta, SYM_P: delta}, count=N_MC, index=0
        )
        asg = generate_block(model, block, seed=100 + i)
        same = correlate(asg[SYM_E], asg[SYM_EP]).mean
        cross = correlate(asg[SYM_E], asg[SYM_P]).mean
        expected = 1 - 2 * delta / math.pi
        assert abs(same - expected) <= tol
        assert abs(cross + expected) <= tol
    _passed(
        f"criterion 4: no V3/V4 violation over {checked} grid configs x 10 seeds "
        f"(exact arithmetic); two-point function matches +/-(1 - 2d/pi) within "
        f"{tol:.4f} at N=10^6 for 5 separations"
    )


def test_criterion_5_no_correlation_lemma_checks():
    lhv = no_correlation_check(
        LHVSign(),
        V3_ANGLES[SYM_E],
        V3_ANGLES[SYM_EP],
        V3_ANGLES[SYM_P],
        N_MC,
        seed=0,
        tolerance=MC_TOL,
    )
    assert lhv.orthogonal
    assert abs(lhv.estimate.mean) <= MC_TOL
    lo, hi = lhv.estimate.interval(MC_TOL)
    assert lo <= 0.0 <= hi
    assert lhv.verdict.value == "consistent"

    cs = no_correlation_check(
        CollapseSequential(),
        V3_ANGLES[SYM_E],
        V3_ANGLES[SYM_EP],
        V3_ANGLES[SYM_P],
        N_MC,
        seed=0,
        tolerance=MC_TOL,
    )
    assert abs(cs.estimate.mean - 0.5) <= MC_TOL
    assert cs.verdict.value == "witness-of-eacp-violation"
    _passed(
        f"criterion 5: LHV <E,E'> = {lhv.estimate.mean:+.5f} with checkpoint "
        f"interval [{lo:+.4f}, {hi:+.4f}] containing 0; collapse-sequential gives "
        f"{cs.estimate.mean:.4f} ~ 0.5 "
        "and is flagged as EACP-violation witness"
    )


def test_criterion_6_feasibility_solver_and_oracle():
    from scipy.spatial import ConvexHull

    infeasible = feasible_triple(SQRT2 / 2, SQRT2 / 2, 0.0)
    assert not infeasible.feasible

    feasible = feasible_triple(0.5, 0.5, 0.0)
    assert feasible.feasible
    witness = np.array(feasible.witness)
    assert np.all(witness >= 0.0)
    assert abs(sum(feasible.witness) - 1.0) <= 1e-9
    for achieved, wanted in zip(feasible.correlations, (0.5, 0.5, 0.0)):
        assert abs(achieved - wanted) <= 1e-9

    # independent oracle: facet enumeration of the hull of the deterministic
    # correlation vectors
    vertices = sorted(
        {(x * y, x * z, y * z) for x, y, z in itertools.product((-1, 1), repeat=3)}
    )
    hull = ConvexHull(np.array(vertices, dtype=float))

    def oracle(target):
        return bool(
            np.all(hull.equations[:, :-1] @ np.asarray(target) + hull.equations[:, -1] <= 1e-9)
        )

    rng = np.random.default_rng(31415)
    disagreements = 0
    for _ in range(1000):
        target = rng.uniform(-1, 1, 3)
        if feasible_triple(*target).feasible != oracle(target):
            disagreements += 1
    assert disagreements == 0
    _passed(
        "criterion 6: (0.7071, 0.7071, 0) infeasible; (0.5, 0.5, 0) feasible with "
        "valid witness to 1e-9; closed form agrees with hull oracle on 1000 random targets"
    )


def test_criterion_7_definability_regimes_and_v4_search():
    thetas = np.linspace(-math.pi, math.pi, 10, endpoint=False)
    cross_pairs = {"<E,P>", "<E,P'>", "<E',P>", "<E',P'>"}
    configs = 0
    for te in thetas:
        for tep in thetas:
            angles = {SYM_E: float(te), SYM_EP: float(tep), SYM_P: 0.3, SYM_PP: -0.7}
            qm = DefinabilityEngine(HypothesisSet.parse("")).statuses(angles)
            local = DefinabilityEngine(HypothesisSet.parse("WR,Locality")).statuses(angles)
            eacp = DefinabilityEngine(HypothesisSet.parse("WR,EACP")).statuses(angles)

            assert {s.symbol for s in qm if s.kind is StatusKind.DEFINED} == {"<E,P>"}
            assert {s.symbol for s in qm if s.kind is StatusKind.UNDEFINED} == (
                cross_pairs - {"<E,P>"}
            ) | {"<E,E'>", "<P,P'>"}

            assert all(s.kind is StatusKind.DEFINED for s in local)

            assert {s.symbol for s in eacp if s.kind is StatusKind.DEFINED} == {
                "<E,P>", "<E,P'>", "<E',P>",
            }
            assert {s.symbol for s in eacp if s.kind is StatusKind.UNDEFINED} == {
                "<E',P'>",
            }
            assert {s.symbol for s in eacp if s.kind is StatusKind.BOUNDED} == {
                "<E,E'>", "<P,P'>",
            }
            configs += 1
    assert configs == 100

    # the lemma's zero only appears with FWP and orthogonal axes
    ortho = {SYM_E: 0.4, SYM_EP: 0.4 + math.pi / 2, SYM_P: 0.3, SYM_PP: -0.7}
    with_fwp = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP")).statuses(ortho)
    kinds = {s.symbol: s.kind for s in with_fwp}
    assert kinds["<E,E'>"] is StatusKind.ZERO_BY_NO_CORRELATION
    assert kinds["<P,P'>"] is StatusKind.BOUNDED

    engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP"))
    search = falsification_search("V4", engine.values, math.pi / 18)
    assert not search.found
    assert "<E',P'>" in search.reason
    _passed(
        "criterion 7: Defined/Undefined statuses match the three hypothesis "
        "regimes on a 10x10 angle grid; <E',P'> undefined without Locality; "
        "V4 search returns empty under EACP-only"
    )


def test_criterion_8_observer_construction():
    e_event = SpacetimeEvent(-1.0, 0.0)
    p_event = SpacetimeEvent(1.0, 0.0)
    ep = find_observer(e_event, p_event, "E-P")
    pe = find_observer(e_event, p_event, "P-E")
    assert boosted_order(e_event, p_event, ep) == 1
    assert boosted_order(e_event, p_event, pe) == -1
    assert abs(ep.beta) < 1 and abs(pe.beta) < 1

    with pytest.raises(ValueError):
        find_observer(SpacetimeEvent(0.0, 0.0), SpacetimeEvent(0.5, 2.0), "E-P")
    _passed(
        f"criterion 8: boosts beta={ep.beta:+.2f} / beta={pe.beta:+.2f} realize "
        "E-P and P-E orderings for simultaneous spacelike events; timelike "
        "inputs are rejected"
    )


def test_criterion_9_weak_realism_is_the_common_assumption():
    # the paper's conclusion: of {WR, Locality, EACP, FWP}, the minimal sets
    # under which V3 or V4 is falsified are {WR, Locality} and
    # {WR, EACP, FWP}, so Weak Realism is the one assumption both need
    names = ("WR", "Locality", "EACP", "FWP")
    subsets = [
        frozenset(sub) for r in range(len(names) + 1)
        for sub in itertools.combinations(names, r)
    ]
    falsifying = set()
    for sub in subsets:
        engine = DefinabilityEngine(HypothesisSet.parse(",".join(sorted(sub))))
        outcomes = [
            falsification_search(v, engine.values, math.pi / 36) for v in ("V3", "V4")
        ]
        if any(o.found and o.report.violated for o in outcomes):
            falsifying.add(sub)
    minimal = {sub for sub in falsifying if not any(o < sub for o in falsifying)}
    assert len(subsets) == 16
    assert minimal == {frozenset({"WR", "Locality"}), frozenset({"WR", "EACP", "FWP"})}
    assert frozenset.intersection(*minimal) == {"WR"}
    _passed(
        f"criterion 9: {len(falsifying)} of 16 hypothesis subsets falsify V3 or V4; "
        "the minimal ones are {WR, Locality} and {WR, EACP, FWP}, sharing only WR"
    )
