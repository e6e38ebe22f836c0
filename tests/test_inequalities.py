import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from belllab import inequalities
from belllab.core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    OutcomeSequence,
    pair_symbol,
    wrap_angle,
)
from belllab.inequalities import (
    V3_PAIRS,
    V4_PAIRS,
    eval_v3,
    eval_v4,
    falsification_search,
    feasible_quad,
    feasible_triple,
    sica_v3_check,
    sica_v4_check,
)
from belllab.relativity import DefinabilityEngine, HypothesisSet

SQRT2 = math.sqrt(2.0)


def seq(values):
    return OutcomeSequence(values)


def random_seq(rng, n):
    return seq(rng.choice([-1, 1], n))


class TestPointwiseIdentities:
    def test_three_sequence_factorization(self):
        # x*y - x*z = x*y*(1 - y*z) over all 8 sign combinations
        for x, y, z in itertools.product((-1, 1), repeat=3):
            assert x * y - x * z == x * y * (1 - y * z)

    def test_min_max_of_sum_and_difference(self):
        # one of |y+z|, |y-z| is 0 and the other is 2 for all 4 sign pairs
        for y, z in itertools.product((-1, 1), repeat=2):
            pair = sorted((abs(y + z), abs(y - z)))
            assert pair == [0, 2]


class TestSicaChecks:
    def test_constant_triple_has_zero_slack(self):
        ones = seq([1] * 8)
        assert sica_v3_check(ones, ones, ones) == 0.0

    def test_constant_quadruple_has_zero_margin(self):
        ones = seq([1] * 8)
        assert sica_v4_check(ones, ones, ones, ones) == 0.0

    def test_random_triples_never_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y, z = (random_seq(rng, 64) for _ in range(3))
            assert sica_v3_check(x, y, z) >= 0.0

    def test_random_quadruples_never_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            w, x, y, z = (random_seq(rng, 64) for _ in range(4))
            assert sica_v4_check(w, x, y, z) >= 0.0

    @given(st.data())
    def test_identity_guarantee_property(self, data):
        n = data.draw(st.integers(1, 80))
        draw = lambda: seq(data.draw(st.lists(
            st.sampled_from([-1, 1]), min_size=n, max_size=n)))
        assert sica_v3_check(draw(), draw(), draw()) >= 0.0
        assert sica_v4_check(draw(), draw(), draw(), draw()) >= 0.0

    @given(
        st.integers(1, 200).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                min_size=4, max_size=4,
            )
        )
    )
    @example([[1], [-1], [-1], [1]])
    def test_count_based_sums_equal_int64_dot(self, quad):
        # reference: the integer sums as int64 dot products
        w, x, y, z = quad
        n = len(w)
        s = lambda u, v: int(np.dot(np.array(u, np.int64), np.array(v, np.int64)))
        v3 = ((n - s(y, z)) - abs(s(x, y) - s(x, z))) / n
        v4 = (2 * n - abs(s(x, y) + s(x, z)) - abs(s(w, y) - s(w, z))) / n
        assert sica_v3_check(seq(x), seq(y), seq(z)) == v3
        assert sica_v4_check(seq(w), seq(x), seq(y), seq(z)) == v4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sica_v3_check(seq([1, 1]), seq([1]), seq([1, 1]))
        with pytest.raises(ValueError, match="length mismatch"):
            sica_v4_check(seq([1]), seq([1]), seq([1, -1]), seq([1]))


class TestEvalV3:
    def test_three_angle_falsification(self):
        # (c_xy, c_xz, c_yz) = (<E,P>, <E,E'>, <P,E'>) at the orthogonal
        # same-side configuration: reduces to sqrt(2) <= 1, false
        report = eval_v3(SQRT2 / 2, 0.0, SQRT2 / 2)
        assert report.violated
        assert report.lhs == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert report.rhs == pytest.approx(1 - SQRT2 / 2, abs=1e-15)
        assert report.excess == pytest.approx(SQRT2 - 1, abs=1e-15)

    def test_uncorrelated_triple(self):
        report = eval_v3(0.0, 0.0, 0.0)
        assert report.slack == 1.0
        assert not report.violated

    def test_deterministic_boundary(self):
        report = eval_v3(-1.0, -1.0, 1.0)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert not report.violated

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eval_v3(1.2, 0.0, 0.0)


class TestEvalV4:
    def test_chsh_falsification_at_optimal_angles(self):
        report = eval_v4(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
        assert report.violated
        assert report.s == pytest.approx(2 * SQRT2, abs=1e-15)

    def test_deterministic_local_boundary(self):
        report = eval_v4(1.0, 1.0, 0.0, 0.0)
        assert report.s == 2.0
        assert not report.violated

    def test_all_uncorrelated(self):
        assert eval_v4(0.0, 0.0, 0.0, 0.0).s == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eval_v4(0.0, 0.0, -1.01, 0.0)

    def test_contains_v3_as_special_case(self):
        # restrict x = y, then rename: |1 + c_yz| + |c_xy - c_xz| <= 2
        # becomes the three-correlation inequality
        rng = np.random.default_rng(3)
        for _ in range(100):
            c_xy, c_xz, c_yz = rng.uniform(-1, 1, 3)
            v4 = eval_v4(1.0, c_yz, c_xy, c_xz)
            v3 = eval_v3(c_xy, c_xz, c_yz)
            assert v4.s - 2.0 == pytest.approx(-v3.slack, abs=1e-12)
            assert v4.violated == v3.violated


def hull_membership_oracle(points, target, tol=1e-9):
    """Convex-hull membership by facet enumeration (scipy.spatial)."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    return bool(np.all(hull.equations[:, :-1] @ target + hull.equations[:, -1] <= tol))


def triple_vertices():
    return sorted({(x * y, x * z, y * z) for x, y, z in itertools.product((-1, 1), repeat=3)})


def quad_vertices():
    return sorted({
        (x * y, x * z, w * y, w * z)
        for w, x, y, z in itertools.product((-1, 1), repeat=4)
    })


class TestFeasibleTriple:
    def assert_valid_witness(self, result, targets):
        w = np.array(result.witness)
        assert np.all(w >= 0.0)
        assert sum(result.witness) == pytest.approx(1.0, abs=1e-9)
        for achieved, wanted in zip(result.correlations, targets):
            assert achieved == pytest.approx(wanted, abs=1e-9)

    def test_quantum_triple_infeasible(self):
        assert not feasible_triple(SQRT2 / 2, 0.0, SQRT2 / 2).feasible
        assert not feasible_triple(SQRT2 / 2, SQRT2 / 2, 0.0).feasible

    def test_classical_triple_feasible_with_witness(self):
        result = feasible_triple(0.5, 0.0, 0.5)
        assert result.feasible
        self.assert_valid_witness(result, [0.5, 0.0, 0.5])

    def test_fully_aligned(self):
        result = feasible_triple(1.0, 1.0, 1.0)
        assert result.feasible
        self.assert_valid_witness(result, [1.0, 1.0, 1.0])

    def test_deterministic_vertices_exact(self):
        for v in triple_vertices():
            result = feasible_triple(*v)
            assert result.feasible
            self.assert_valid_witness(result, v)

    def test_agrees_with_hull_oracle(self):
        vertices = triple_vertices()
        rng = np.random.default_rng(6)
        for _ in range(300):
            target = rng.uniform(-1, 1, 3)
            assert feasible_triple(*target).feasible == hull_membership_oracle(
                vertices, target
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            feasible_triple(2.0, 0.0, 0.0)


class TestFeasibleQuad:
    def test_chsh_point_infeasible(self):
        result = feasible_quad(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
        assert not result.feasible
        assert result.max_violation > 0.1

    def test_uncorrelated_feasible(self):
        assert feasible_quad(0.0, 0.0, 0.0, 0.0).feasible

    def test_agrees_with_hull_oracle(self):
        vertices = quad_vertices()
        rng = np.random.default_rng(7)
        for _ in range(200):
            target = rng.uniform(-1, 1, 4)
            assert feasible_quad(*target).feasible == hull_membership_oracle(
                vertices, target
            )


def test_feasibility_calls_no_solver(monkeypatch):
    """Membership is decided in closed form; the ``linprog`` stub is never called."""
    assert "linprog" in vars(inequalities)
    targets = [
        (feasible_triple, (SQRT2 / 2, SQRT2 / 2, 0.0)),
        (feasible_triple, (0.5, 0.0, 0.5)),
        (feasible_quad, (-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)),
        (feasible_quad, (0.5, 0.5, 0.5, -0.5)),
    ]
    expected = [solve(*target) for solve, target in targets]

    def refuse(*args, **kwargs):
        raise AssertionError("feasibility must not call a solver")

    monkeypatch.setattr(inequalities, "linprog", refuse)
    assert [solve(*target) for solve, target in targets] == expected


# Facets f . c <= bound of each local polytope, written out by hand: the four
# triangle facets -v . c <= 1 of the triple's tetrahedron, and Fine's eight
# CHSH facets of the quadruple's cross-polytope.
TRIPLE_FACETS = [(-np.array(v, dtype=float), 1.0) for v in triple_vertices()
                 if v[0] * v[1] * v[2] == 1]
QUAD_FACETS = [(sign * (1.0 - 2.0 * np.eye(4)[k]), 2.0)
               for k in range(4) for sign in (1.0, -1.0)]
# The variable slots of each target correlation: (x, y, z) and (w, x, y, z).
TRIPLE_SLOTS = ((0, 1), (0, 2), (1, 2))
QUAD_SLOTS = ((1, 2), (1, 3), (0, 2), (0, 3))
POLYTOPES = {
    "triple": (feasible_triple, TRIPLE_SLOTS, triple_vertices, TRIPLE_FACETS),
    "quad": (feasible_quad, QUAD_SLOTS, quad_vertices, QUAD_FACETS),
}


def random_targets(rng, count, vertices, facets):
    """Uniform targets in the box; every third one pushed onto a facet, as a
    random convex combination of the vertices that facet holds."""
    vertices = np.array(vertices(), dtype=float)
    targets = []
    for i in range(count):
        if i % 3 == 2:
            f, bound = facets[rng.integers(len(facets))]
            on = vertices[vertices @ f == bound]
            targets.append(np.clip(rng.dirichlet(np.ones(len(on))) @ on, -1.0, 1.0))
        else:
            targets.append(rng.uniform(-1.0, 1.0, vertices.shape[1]))
    return targets


def facet_bound(target, facets):
    """Lower bound on the Chebyshev slack: a distribution within s of the
    target in every correlation has f . c <= bound + |f|_1 s on each facet."""
    return max(0.0, max((f @ target - bound) / np.abs(f).sum() for f, bound in facets))


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_slack_is_certified_by_facet_and_witness(name):
    """The violated facet bounds the slack from below and the witness from
    above, so the closed form is the optimum without any solver."""
    solve, slots, vertices, facets = POLYTOPES[name]
    rng = np.random.default_rng(12)
    for target in random_targets(rng, 1000, vertices, facets):
        result = solve(*target)
        t = result.max_violation
        assert t >= facet_bound(target, facets) - 1e-12
        assert result.feasible == (t <= 1e-9)
        witness = np.array(result.witness)
        assert np.all(witness >= 0.0)
        assert witness.sum() == pytest.approx(1.0, abs=1e-12)
        atoms = np.array(result.atoms)
        achieved = np.array([atoms[:, i] * atoms[:, j] for i, j in slots]) @ witness
        assert np.max(np.abs(achieved - target)) <= t + 1e-12
        assert np.allclose(result.correlations, achieved, rtol=0.0, atol=1e-15)


def chebyshev_lp(target, vertices):
    """min t  s.t.  |V^T p - target| <= t, sum p = 1, p >= 0, by scipy's LP."""
    from scipy.optimize import linprog

    v = np.array(vertices, dtype=float).T
    n_pairs, n_vertices = v.shape
    ones = np.ones((n_pairs, 1))
    res = linprog(
        np.r_[np.zeros(n_vertices), 1.0],
        A_ub=np.block([[v, -ones], [-v, -ones]]),
        b_ub=np.r_[target, -target],
        A_eq=np.r_[np.ones(n_vertices), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (n_vertices + 1),
        method="highs",
    )
    assert res.success, res.message
    return res.x[-1]


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_slack_matches_a_chebyshev_lp(name):
    solve, _, vertices, facets = POLYTOPES[name]
    rng = np.random.default_rng(13)
    for target in random_targets(rng, 300, vertices, facets):
        assert solve(*target).max_violation == pytest.approx(
            chebyshev_lp(target, vertices()), abs=1e-12
        )


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_every_vertex_is_feasible_as_a_point_mass(name):
    solve, _, vertices, _ = POLYTOPES[name]
    for vertex in vertices():
        result = solve(*vertex)
        assert result.feasible
        assert result.max_violation == 0.0
        assert sorted(result.witness)[-1] == 1.0
        assert result.correlations == tuple(float(v) for v in vertex)


@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=4))
@example([SQRT2 / 2, SQRT2 / 2, 0.0])
@example([-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2])
def test_witness_correlations_are_correctly_rounded(target):
    """Each witness correlation is its exact sum over atoms, rounded once, so
    it does not depend on how a BLAS kernel orders the additions."""
    solve, slots, _, _ = POLYTOPES["triple" if len(target) == 3 else "quad"]
    result = solve(*target)
    for value, (i, j) in zip(result.correlations, slots):
        exact = sum(Fraction(w) * a[i] * a[j] for w, a in zip(result.witness, result.atoms))
        assert value == float(exact)


def test_anti_aligned_triple_needs_slack_two_thirds():
    result = feasible_triple(1.0, 1.0, -1.0)
    assert not result.feasible
    assert result.max_violation == pytest.approx(2.0 / 3.0)


def test_paper_triple_slack_is_exact():
    result = feasible_triple(SQRT2 / 2, SQRT2 / 2, 0.0)
    assert abs(result.max_violation - (SQRT2 - 1.0) / 3.0) <= 1e-15


class TestFalsificationSearch:
    def test_v4_empty_without_locality(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP"))
        out = falsification_search("V4", engine.values, math.pi / 18)
        assert not out.found
        assert "<E',P'>" in out.reason

    def test_v3_empty_without_fwp(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP"))
        out = falsification_search("V3", engine.values, math.pi / 18)
        assert not out.found

    def test_v3_under_eacp_fwp_finds_orthogonal_optimum(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP"))
        out = falsification_search("V3", engine.values, math.pi / 36)
        assert out.found
        assert out.violation == pytest.approx(SQRT2 - 1, abs=1e-9)
        gap = abs(wrap_angle(out.angles["E"] - out.angles["E'"]))
        assert gap == pytest.approx(math.pi / 2, abs=1e-9)
        assert out.report.violated

    def test_v3_under_locality_beats_the_orthogonal_family(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        out = falsification_search("V3", engine.values, math.pi / 36)
        assert out.found
        assert out.violation == pytest.approx(0.5, abs=1e-9)

    def test_v4_under_locality_coarse_grid(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        out = falsification_search("V4", engine.values, math.pi / 12)
        assert out.found
        assert out.violation == pytest.approx(2 * SQRT2 - 2, abs=1e-9)

    def test_v4_under_locality_fine_grid(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        out = falsification_search("V4", engine.values, math.pi / 180)
        assert out.found
        assert out.violation == pytest.approx(2 * SQRT2 - 2, abs=1e-9)
        assert out.report.s == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_v4_empty_without_locality_fine_grid(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP"))
        out = falsification_search("V4", engine.values, math.pi / 180)
        assert not out.found
        assert "<E',P'>" in out.reason

    def test_bad_version(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        with pytest.raises(ValueError, match="version"):
            falsification_search("V5", engine.values)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_bad_grid_step(self, step):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        with pytest.raises(ValueError, match="grid_step must be positive and finite"):
            falsification_search("V3", engine.values, step)


def never_called(angles):
    raise AssertionError("the value source was called")


# 4*pi and more leave the coarse grid empty; the others ask for more angles
# per axis than the cap (the smallest of them, 2*pi/(cap + 1), for one more).
@pytest.mark.parametrize("step, message", [
    (4 * math.pi, "no angle on the circle"),
    (100.0, "no angle on the circle"),
    (2 * math.pi / (inequalities.SEARCH_MAX_ANGLES + 1), "above the limit"),
    (1e-3, "above the limit"),
    (1e-300, "above the limit"),
    (5e-324, "above the limit"),
])
@pytest.mark.parametrize("version", ["V3", "V4"])
def test_grid_is_bounded_before_any_value_is_computed(version, step, message):
    with pytest.raises(ValueError, match=message) as info:
        falsification_search(version, never_called, step)
    assert repr(step) in str(info.value)
    limit = "4*pi" if "no angle" in message else str(inequalities.SEARCH_MAX_ANGLES)
    assert limit in str(info.value)


@pytest.mark.parametrize("step, angles", [
    (2 * math.pi / inequalities.SEARCH_MAX_ANGLES, inequalities.SEARCH_MAX_ANGLES),
    (math.nextafter(4 * math.pi, 0.0), 1),
], ids=["smallest-step", "largest-step"])
def test_grid_at_its_bounds_reaches_the_value_source(step, angles):
    class Reached(Exception):
        pass

    def spy(mesh):
        raise Reached(np.shape(mesh[SYM_E]))

    with pytest.raises(Reached) as info:
        falsification_search("V4", spy, step)
    assert info.value.args[0] == (angles, 1)


# Reference search by brute force: the whole objective at every
# configuration of the free axes, the last two meshed per value-source call
# and the earlier ones in a Python loop.  The separable scan must agree
# exactly, since it reorders no floating-point operation at the maximum.
BRUTE_FORCE = {
    "V3": ((SYM_E, SYM_EP), SYM_P, V3_PAIRS,
           lambda xy, xz, yz: np.abs(xy - xz) - (1.0 - yz)),
    "V4": ((SYM_E, SYM_EP, SYM_P), SYM_PP, V4_PAIRS,
           lambda c1, c2, c3, c4: np.abs(c1 + c2) + np.abs(c3 - c4) - 2.0),
}
NOT_FOUND_REASONS = {
    "V3": "no configuration defines all of <E,P>, <E,E'>, <E',P> under these hypotheses",
    "V4": "<E',P'> undefined under these hypotheses",
}
HYPOTHESIS_SUBSETS = [
    ",".join(subset)
    for r in range(5)
    for subset in itertools.combinations(("WR", "Locality", "EACP", "FWP"), r)
]


def brute_force_scan(version, value_source, grids):
    free, pinned, pairs, objective = BRUTE_FORCE[version]
    t1, t2 = np.meshgrid(grids[-2], grids[-1], indexing="ij")
    best = None
    for head in itertools.product(*grids[:-2]):
        angles = {free[-2]: t1, free[-1]: t2, pinned: np.zeros_like(t1)}
        angles.update({ax: np.full_like(t1, v) for ax, v in zip(free, head)})
        values = value_source(angles)
        flat = objective(*(values[pair_symbol(*p)] for p in pairs)).ravel()
        if np.all(np.isnan(flat)):
            continue
        k = int(np.nanargmax(flat))
        if best is None or flat[k] > best[0]:
            i, j = np.unravel_index(k, t1.shape)
            best = (float(flat[k]),
                    (*map(float, head), float(grids[-2][i]), float(grids[-1][j])))
    return best


def brute_force_violation(version, value_source, step, refinement=10):
    """Coarse full-circle scan, then one refinement around its best point;
    None when no configuration is defined."""
    n_axes = len(BRUTE_FORCE[version][0])
    full = np.arange(-math.pi + step, math.pi + step / 2, step)
    coarse = brute_force_scan(version, value_source, [full] * n_axes)
    if coarse is None:
        return None
    fine_step = step / refinement
    k = int(math.ceil(step / fine_step))
    fine = [c + fine_step * np.arange(-k, k + 1) for c in coarse[1]]
    return brute_force_scan(version, value_source, fine)[0]


@pytest.mark.parametrize("step", [math.pi / 12, math.pi / 18, math.pi / 36],
                         ids=["pi/12", "pi/18", "pi/36"])
@pytest.mark.parametrize("version", ["V3", "V4"])
@pytest.mark.parametrize("hypotheses", HYPOTHESIS_SUBSETS, ids=lambda h: h or "none")
def test_search_matches_brute_force_exactly(hypotheses, version, step):
    engine = DefinabilityEngine(HypothesisSet.parse(hypotheses))
    out = falsification_search(version, engine.values, step)
    want = brute_force_violation(version, engine.values, step)
    assert out.found == (want is not None)
    assert out.reason == (None if out.found else NOT_FOUND_REASONS[version])
    if out.found:
        assert out.violation == want
        excess = out.report.s - 2.0 if version == "V4" else -out.report.slack
        assert excess == out.violation


# (row axes, shared axis, pinned axis) of each search.
SEARCH_AXES = {"V3": ((SYM_E,), SYM_EP, SYM_P), "V4": ((SYM_E, SYM_EP), SYM_P, SYM_PP)}


@pytest.mark.parametrize("version", ["V3", "V4"])
def test_scans_pass_each_axis_at_its_own_shape(version):
    engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
    shapes = []

    def spy(angles):
        shapes.append({k: np.shape(v) for k, v in angles.items()})
        return engine.values(angles)

    step = math.pi / 36
    assert falsification_search(version, spy, step).found
    rows, shared, pinned = SEARCH_AXES[version]
    coarse, fine, final = shapes
    for scan, g in ((coarse, 72), (fine, len(inequalities._grid(0.0, step, step / 10)))):
        assert scan == {**dict.fromkeys(rows, (g, 1)), shared: (1, g), pinned: (1, 1)}
    assert final == dict.fromkeys((*rows, shared, pinned), (1,))


@pytest.mark.parametrize("step", [math.pi / 36, math.pi / 180], ids=["pi/36", "pi/180"])
@pytest.mark.parametrize("version", ["V3", "V4"])
@pytest.mark.parametrize("hypotheses", HYPOTHESIS_SUBSETS, ids=lambda h: h or "none")
def test_search_is_bit_identical_to_a_full_mesh_source(hypotheses, version, step):
    # The reference source broadcasts every axis to the whole mesh, so each
    # pair is computed at every mesh point.
    engine = DefinabilityEngine(HypothesisSet.parse(hypotheses))

    def full_mesh(angles):
        return engine.values(dict(zip(angles, np.broadcast_arrays(*angles.values()))))

    got = falsification_search(version, engine.values, step).to_dict()
    want = falsification_search(version, full_mesh, step).to_dict()
    assert repr(got) == repr(want)  # repr: exact floats, and NaN equals NaN
