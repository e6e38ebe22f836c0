import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab.core import SYM_E, SYM_EP, SYM_P, SYM_PP, Side, pair_symbol, side_of_symbol
from belllab.realism import CollapseSequential, LHVSign, lhv_outcomes
from belllab.relativity import (
    SIX_PAIRS,
    Boost,
    DefinabilityEngine,
    Hypothesis,
    HypothesisSet,
    IntervalType,
    SpacetimeEvent,
    StatusKind,
    UndefinedCorrelationError,
    boosted_order,
    boosted_time,
    find_observer,
    interval_type,
    no_correlation_check,
)

SQRT2 = math.sqrt(2.0)
V3_ANGLES = (3 * math.pi / 4, -3 * math.pi / 4, 0.0)  # (theta_E, theta_E', theta_P)


class TestIntervalType:
    def test_spacelike(self):
        assert interval_type(SpacetimeEvent(-1, 0), SpacetimeEvent(1, 0)) is IntervalType.SPACELIKE

    def test_timelike(self):
        assert interval_type(SpacetimeEvent(0, 0), SpacetimeEvent(0, 1)) is IntervalType.TIMELIKE

    def test_lightlike(self):
        assert interval_type(SpacetimeEvent(0, 0), SpacetimeEvent(1, 1)) is IntervalType.LIGHTLIKE

    def test_tiny_separation_is_spacelike(self):
        # dx**2 underflows to 0 here; the magnitudes of dx and dt do not
        e, p = SpacetimeEvent(1e-170, 0.0), SpacetimeEvent(0.0, 0.0)
        assert interval_type(e, p) is IntervalType.SPACELIKE
        assert boosted_order(e, p, find_observer(e, p, "E-P")) == 1
        assert boosted_order(e, p, find_observer(e, p, "P-E")) == -1

    @pytest.mark.parametrize(
        "e, p",
        [((-1e308, -1e308), (1e308, 1e308)),  # inf - inf was NaN, called lightlike
         ((-1e308, 0.0), (1e308, 0.0)),
         ((0.0, 1e308), (1.0, -1e308))],
    )
    def test_separation_that_overflows_is_rejected(self, e, p):
        with pytest.raises(ValueError, match=r"separation of SpacetimeEvent.* is not finite"):
            interval_type(SpacetimeEvent(*e), SpacetimeEvent(*p))

    def test_huge_finite_separation_is_classified(self):
        # dx + dt overflows here, but each difference is finite
        e = SpacetimeEvent(0.0, 0.0)
        p = SpacetimeEvent(1.5e308, 1e308)
        assert interval_type(e, p) is IntervalType.SPACELIKE
        assert boosted_order(e, p, find_observer(e, p, "E-P")) == 1
        assert boosted_order(e, p, find_observer(e, p, "P-E")) == -1
        assert interval_type(e, SpacetimeEvent(1e308, 1e308)) is IntervalType.LIGHTLIKE

    def test_invariant_under_boosts(self):
        rng = np.random.default_rng(11)
        events = [
            (SpacetimeEvent(-1, 0), SpacetimeEvent(1, 0)),
            (SpacetimeEvent(0.2, -1), SpacetimeEvent(0.1, 2)),
            (SpacetimeEvent(0, 0), SpacetimeEvent(3, 1)),
        ]

        def boosted(e, b):
            return SpacetimeEvent(x=b.gamma * (e.x - b.beta * e.t), t=boosted_time(e, b))

        for e1, e2 in events:
            kind = interval_type(e1, e2)
            for _ in range(100):
                b = Boost(float(rng.uniform(-0.99, 0.99)))
                assert interval_type(boosted(e1, b), boosted(e2, b)) is kind


class TestBoostedOrder:
    def test_identity_boost_preserves_lab_order(self):
        e1, e2 = SpacetimeEvent(0, 0), SpacetimeEvent(5, 1)
        assert boosted_order(e1, e2, Boost(0.0)) == 1

    def test_rightward_boost_sees_right_event_first(self):
        left, right = SpacetimeEvent(-1, 0), SpacetimeEvent(1, 0)
        # t' = gamma*(t - beta*x): at beta = +0.5 the x=+1 event is earlier
        assert boosted_order(left, right, Boost(0.5)) == -1
        assert boosted_order(left, right, Boost(-0.5)) == 1

    def test_simultaneous_for_matched_boost(self):
        e1, e2 = SpacetimeEvent(0, 0), SpacetimeEvent(2, 1)
        assert boosted_order(e1, e2, Boost(0.5)) == 0

    def test_timelike_order_is_frame_invariant(self):
        e1, e2 = SpacetimeEvent(0.3, 0), SpacetimeEvent(0.5, 1)
        for beta in np.linspace(-0.95, 0.95, 39):
            assert boosted_order(e1, e2, Boost(float(beta))) == 1

    def test_beta_range_validated(self):
        with pytest.raises(ValueError, match="beta"):
            Boost(1.0)


class TestFindObserver:
    E_EVENT = SpacetimeEvent(-1.0, 0.0)
    P_EVENT = SpacetimeEvent(1.0, 0.0)

    def test_e_first(self):
        boost = find_observer(self.E_EVENT, self.P_EVENT, "E-P")
        assert boost.beta == pytest.approx(-0.5)
        assert boosted_order(self.E_EVENT, self.P_EVENT, boost) == 1

    def test_p_first(self):
        boost = find_observer(self.E_EVENT, self.P_EVENT, "P-E")
        assert boost.beta == pytest.approx(0.5)
        assert boosted_order(self.E_EVENT, self.P_EVENT, boost) == -1

    def test_both_orders_exist_for_generic_spacelike_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dx = float(rng.uniform(0.5, 5.0)) * (1 if rng.random() < 0.5 else -1)
            dt = float(rng.uniform(-0.99, 0.99)) * abs(dx)
            e = SpacetimeEvent(float(rng.normal()), float(rng.normal()))
            p = SpacetimeEvent(e.x + dx, e.t + dt)
            assert boosted_order(e, p, find_observer(e, p, "E-P")) == 1
            assert boosted_order(e, p, find_observer(e, p, "P-E")) == -1

    def test_timelike_rejected(self):
        with pytest.raises(ValueError, match="causally ordered"):
            find_observer(SpacetimeEvent(0, 0), SpacetimeEvent(0, 1), "E-P")

    def test_lightlike_rejected(self):
        with pytest.raises(ValueError, match="causally ordered"):
            find_observer(SpacetimeEvent(0, 0), SpacetimeEvent(1, 1), "P-E")

    @pytest.mark.parametrize(
        "p_event, desired",
        [(SpacetimeEvent(1.0, 1 - 2**-53), "P-E"), (SpacetimeEvent(1.0, 2**-53 - 1), "E-P")],
    )
    def test_velocity_that_rounds_to_light_speed_names_the_cause(self, p_event, desired):
        e_event = SpacetimeEvent(0.0, 0.0)
        assert interval_type(e_event, p_event) is IntervalType.SPACELIKE
        with pytest.raises(ValueError, match="too close to lightlike separation"):
            find_observer(e_event, p_event, desired)

    def test_bad_order_spec(self):
        with pytest.raises(ValueError, match="desired order"):
            find_observer(self.E_EVENT, self.P_EVENT, "E->P")

    def test_coordinates_large_next_to_their_separation(self):
        # boosting the two times apart and subtracting lost the sign here
        e = SpacetimeEvent(-2.70456676232709e-19, -3.9853228790446214e-20)
        p = SpacetimeEvent(-2.7073252855964105e-19, -3.957737646351418e-20)
        assert interval_type(e, p) is IntervalType.SPACELIKE
        assert boosted_order(e, p, find_observer(e, p, "E-P")) == 1
        assert boosted_order(e, p, find_observer(e, p, "P-E")) == -1

    def test_a_midpoint_that_orders_nothing_names_the_cause(self):
        # one ulp from lightlike: beta = 1 - 2**-53 < 1, but the boosted
        # separation rounds to zero, so no double velocity orders P first
        e, p = SpacetimeEvent(0.0, 0.0), SpacetimeEvent(1 + 2**-52, 1.0)
        assert boosted_order(e, p, find_observer(e, p, "E-P")) == 1
        with pytest.raises(ValueError, match="too close to lightlike separation"):
            find_observer(e, p, "P-E")


@settings(max_examples=500, deadline=None)
@given(
    exponent=st.integers(-1000, 1000),
    offset=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
    gap=st.integers(1, 2**30) | st.floats(0.0, 1.0),
)
@example(exponent=-62, offset=(0.0, 0.0), signs=(1, 1), gap=1)
@example(exponent=0, offset=(0.0, 0.0), signs=(1, 1), gap=1)
def test_both_orders_or_the_documented_error_at_every_scale(exponent, offset, signs, gap):
    # spacelike pairs |dx| = 2**exponent, at gap ulps from lightlike (an int)
    # or at the ratio 1 - gap (a float), with coordinates up to 1000 times
    # their separation
    dx = math.ldexp(1.0, exponent)
    dt = dx - gap * math.ulp(dx) if isinstance(gap, int) else dx * (1.0 - gap)
    e = SpacetimeEvent(offset[0] * dx, offset[1] * dx)
    p = SpacetimeEvent(e.x + signs[0] * dx, e.t + signs[1] * dt)
    if interval_type(e, p) is not IntervalType.SPACELIKE:
        return
    ratio = abs(p.t - e.t) / abs(p.x - e.x)
    try:
        ep, pe = find_observer(e, p, "E-P"), find_observer(e, p, "P-E")
    except ValueError as exc:
        assert "too close to lightlike separation" in str(exc)
        assert ratio > 1.0 - 1e-12
        return
    assert boosted_order(e, p, ep) == 1 and boosted_order(e, p, pe) == -1


class TestHypothesisSet:
    def test_qm_always_present(self):
        assert HypothesisSet(frozenset()).flags == {Hypothesis.QM}
        assert Hypothesis.QM in HypothesisSet.parse("WR,Locality").flags

    def test_parse_aliases(self):
        h = HypothesisSet.parse("weak-realism, locality")
        assert h.weak_realism and h.locality

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown hypothesis"):
            HypothesisSet.parse("WR,karma")

    def test_locality_implies_eacp(self):
        assert HypothesisSet.parse("WR,Locality").eacp
        assert not HypothesisSet.parse("WR,FWP").eacp

    def test_label_is_ordered(self):
        assert HypothesisSet.parse("FWP,EACP,WR").label() == "{QM,WR,EACP,FWP}"


ANGLES = {SYM_E: 0.7, SYM_EP: 0.7 + math.pi / 2, SYM_P: -0.4, SYM_PP: 1.9}


def statuses_by_symbol(hyp, angles=ANGLES):
    return {
        st.symbol: st
        for st in DefinabilityEngine(HypothesisSet.parse(hyp)).statuses(angles)
    }


HYPOTHESIS_SUBSETS = [
    ",".join(subset)
    for r in range(5)
    for subset in itertools.combinations(("WR", "Locality", "EACP", "FWP"), r)
]

# The decision table at ANGLES (E, E' orthogonal; P, P' not), one
# (kind, justification) per pair of SIX_PAIRS:
# <E,P>, <E,P'>, <E',P>, <E',P'>, <E,E'>, <P,P'>.
MALUS = (StatusKind.DEFINED, "twisted-malus")
NEEDS_WR = (StatusKind.UNDEFINED, "requires-weak-realism")
NO_TRANSFER = (StatusKind.UNDEFINED, "no-value-transfer-principle")
NO_LOCALITY = (StatusKind.UNDEFINED, "undefined-without-locality")
LOCAL_MALUS = (StatusKind.DEFINED, "locality-twisted-malus")
MIRROR = (StatusKind.DEFINED, "locality-mirror")
TRANSFER = (StatusKind.DEFINED, "eacp-transfer")
STRADDLE = (StatusKind.BOUNDED, "parity-straddle")
LEMMA = (StatusKind.ZERO_BY_NO_CORRELATION, "no-correlation-lemma")

WITHOUT_WR = (MALUS, NEEDS_WR, NEEDS_WR, NEEDS_WR, NEEDS_WR, NEEDS_WR)
WR_ONLY = (MALUS, NO_TRANSFER, NO_TRANSFER, NO_LOCALITY, NO_TRANSFER, NO_TRANSFER)
WR_LOCALITY = (MALUS, LOCAL_MALUS, LOCAL_MALUS, MIRROR, MIRROR, MIRROR)
DECISION_TABLE = {
    "": WITHOUT_WR,
    "Locality": WITHOUT_WR,
    "EACP": WITHOUT_WR,
    "FWP": WITHOUT_WR,
    "Locality,EACP": WITHOUT_WR,
    "Locality,FWP": WITHOUT_WR,
    "EACP,FWP": WITHOUT_WR,
    "Locality,EACP,FWP": WITHOUT_WR,
    "WR": WR_ONLY,
    "WR,FWP": WR_ONLY,
    "WR,Locality": WR_LOCALITY,
    "WR,Locality,EACP": WR_LOCALITY,
    "WR,Locality,FWP": WR_LOCALITY,
    "WR,Locality,EACP,FWP": WR_LOCALITY,
    "WR,EACP": (MALUS, TRANSFER, TRANSFER, NO_LOCALITY, STRADDLE, STRADDLE),
    "WR,EACP,FWP": (MALUS, TRANSFER, TRANSFER, NO_LOCALITY, LEMMA, STRADDLE),
}


@pytest.mark.parametrize("hyp", HYPOTHESIS_SUBSETS)
def test_decision_table(hyp):
    engine = DefinabilityEngine(HypothesisSet.parse(hyp))
    got = tuple((st.kind, st.justification) for st in engine.statuses(ANGLES))
    assert got == DECISION_TABLE[hyp]


class TestDefinableCorrelations:
    def test_qm_only_defines_the_measured_pair(self):
        sts = statuses_by_symbol("")
        assert sts["<E,P>"].kind is StatusKind.DEFINED
        assert sts["<E,P>"].value == pytest.approx(-math.cos(ANGLES[SYM_E] - ANGLES[SYM_P]))
        for sym in ("<E,P'>", "<E',P>", "<E',P'>", "<E,E'>", "<P,P'>"):
            assert sts[sym].kind is StatusKind.UNDEFINED

    def test_locality_defines_all_six_with_sign_pattern(self):
        for te in np.linspace(-3, 3, 7):
            angles = {SYM_E: te, SYM_EP: te + 1.1, SYM_P: 0.2, SYM_PP: -2.0}
            sts = statuses_by_symbol("WR,Locality", angles)
            assert all(s.kind is StatusKind.DEFINED for s in sts.values())
            # cross-side pairs carry -cos, same-side pairs +cos
            for a, b in ((SYM_E, SYM_P), (SYM_E, SYM_PP), (SYM_EP, SYM_P), (SYM_EP, SYM_PP)):
                assert sts[pair_symbol(a, b)].value == pytest.approx(
                    -math.cos(angles[a] - angles[b])
                )
            for a, b in ((SYM_E, SYM_EP), (SYM_P, SYM_PP)):
                assert sts[pair_symbol(a, b)].value == pytest.approx(
                    math.cos(angles[a] - angles[b])
                )

    def test_eacp_without_locality(self):
        sts = statuses_by_symbol("WR,EACP")
        assert sts["<E,P>"].kind is StatusKind.DEFINED
        assert sts["<E,P'>"].kind is StatusKind.DEFINED
        assert sts["<E',P>"].kind is StatusKind.DEFINED
        assert sts["<E',P'>"].kind is StatusKind.UNDEFINED
        # without FWP even orthogonal same-side axes are merely bounded
        assert sts["<E,E'>"].kind is StatusKind.BOUNDED
        assert sts["<E,E'>"].value is None and not sts["<E,E'>"].definite
        assert sts["<P,P'>"].kind is StatusKind.BOUNDED

    def test_zero_status_needs_eacp_fwp_and_orthogonality(self):
        sts = statuses_by_symbol("WR,EACP,FWP")
        assert sts["<E,E'>"].kind is StatusKind.ZERO_BY_NO_CORRELATION
        assert sts["<E,E'>"].value == 0.0
        assert sts["<P,P'>"].kind is StatusKind.BOUNDED  # those axes are not orthogonal
        no_fwp = statuses_by_symbol("WR,EACP")
        assert no_fwp["<E,E'>"].kind is StatusKind.BOUNDED

    def test_primes_need_weak_realism(self):
        sts = statuses_by_symbol("Locality")
        assert sts["<E,P>"].kind is StatusKind.DEFINED
        assert sts["<E,P'>"].kind is StatusKind.UNDEFINED
        assert sts["<E,P'>"].justification == "requires-weak-realism"

    def test_missing_angle_rejected(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        with pytest.raises(KeyError, match="no angle"):
            engine.status(SYM_E, SYM_P, {SYM_E: 0.0})

    def test_adding_locality_never_shrinks_the_defined_set(self):
        for base in ("", "WR", "WR,EACP", "WR,EACP,FWP"):
            for te in np.linspace(0, math.pi, 5):
                angles = {SYM_E: te, SYM_EP: te + math.pi / 2, SYM_P: 0.0, SYM_PP: 1.0}
                weak = statuses_by_symbol(base, angles)
                strong = statuses_by_symbol(
                    (base + "," if base else "") + "Locality", angles
                )
                defined_weak = {s for s, v in weak.items() if v.definite}
                defined_strong = {s for s, v in strong.items() if v.definite}
                assert defined_weak <= defined_strong

    def test_vectorized_values_match_scalar_statuses(self):
        # Steps of pi/4: E and E' sit two steps apart (orthogonal) at many
        # grid points, and P, P' are pinned orthogonal, so every status kind,
        # the no-correlation lemma included, is compared.
        grid = np.linspace(-math.pi, math.pi, 9)
        theta_p, theta_pp = -math.pi / 2, 0.0
        te, tep = np.meshgrid(grid, grid, indexing="ij")
        seen = set()
        for hyp in HYPOTHESIS_SUBSETS:
            engine = DefinabilityEngine(HypothesisSet.parse(hyp))
            arrays = engine.values({
                SYM_E: te, SYM_EP: tep,
                SYM_P: np.full_like(te, theta_p), SYM_PP: np.full_like(te, theta_pp),
            })
            for i, j in itertools.product(range(len(grid)), repeat=2):
                angles = {SYM_E: grid[i], SYM_EP: grid[j], SYM_P: theta_p, SYM_PP: theta_pp}
                for a, b in SIX_PAIRS:
                    st = engine.status(a, b, angles)
                    seen.add(st.kind)
                    vec = arrays[pair_symbol(a, b)][i, j]
                    if st.value is None:
                        assert math.isnan(vec), (hyp, a, b, i, j)
                    else:
                        assert vec == pytest.approx(st.value, abs=1e-12), (hyp, a, b, i, j)
        assert seen == set(StatusKind)

    def test_values_on_mixed_shapes_match_the_full_mesh(self):
        # Steps of pi/4 put orthogonal axes at many points, so the lemma's
        # zero is among the values compared.
        steps = np.arange(-4, 4) * (math.pi / 4)
        angles = {SYM_E: steps[:, None], SYM_EP: steps[None, :],
                  SYM_P: np.zeros((1, 1)), SYM_PP: steps}
        full = dict(zip(angles, np.broadcast_arrays(*angles.values())))
        for hyp in HYPOTHESIS_SUBSETS:
            engine = DefinabilityEngine(HypothesisSet.parse(hyp))
            got, want = engine.values(angles), engine.values(full)
            assert got.keys() == want.keys() == {pair_symbol(a, b) for a, b in SIX_PAIRS}
            for key, value in got.items():
                assert value.shape == (8, 8) and not value.flags.writeable
                assert np.array_equal(value, want[key], equal_nan=True), (hyp, key)

    def test_definite_statuses_raise_on_an_undefined_pair(self):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP"))
        with pytest.raises(UndefinedCorrelationError, match="<E',P'>"):
            engine.definite_statuses(ANGLES, [(SYM_EP, SYM_PP)])


# Every pair is DEFINED under {WR, Locality}: -cos on cross-side pairs,
# +cos on same-side pairs.
LOCALITY_SIGN = {pair_symbol(a, b): 1.0 if side_of_symbol(a) is side_of_symbol(b) else -1.0
                 for a, b in SIX_PAIRS}
AXES = (SYM_E, SYM_EP, SYM_P, SYM_PP)


def cos_of_difference(a, b):
    """np.cos(a - b), and a bound on its error from rounding a - b: the exact
    rounding error of the subtraction (TwoSum), as |d cos / d delta| <= 1."""
    d = a - b
    bb = d - a
    return np.cos(d), np.abs((a - (d - bb)) + (-b - bb))


@st.composite
def axis_meshes(draw):
    """Angles in [-4 pi, 4 pi] for the four axes, each a column (n, 1) or a
    row (n,): its own angles, or another axis's plus 0, +-pi/2 or +-pi, so
    that equal, orthogonal and opposite axes all occur."""
    n = draw(st.integers(1, 5))
    angle = st.floats(-4 * math.pi, 4 * math.pi)
    out = {}
    for axis in AXES:
        base = draw(st.sampled_from([None, *out]))
        if base is None:
            shape = draw(st.sampled_from([(n, 1), (n,)]))
            out[axis] = np.array(draw(st.lists(angle, min_size=n, max_size=n))).reshape(shape)
        else:
            offset = draw(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]))
            out[axis] = out[base] + offset
    return out


class TestValuesMesh:
    @settings(max_examples=300, deadline=None)
    @given(axis_meshes())
    def test_values_are_within_1e_15_of_the_cos_of_the_difference(self, angles):
        got = DefinabilityEngine(HypothesisSet.parse("WR,Locality")).values(angles)
        full = dict(zip(angles, np.broadcast_arrays(*angles.values())))
        for a, b in SIX_PAIRS:
            key = pair_symbol(a, b)
            want, err = cos_of_difference(full[a], full[b])
            assert np.all(np.abs(got[key] - LOCALITY_SIGN[key] * want) <= 1e-15 + err), key
            assert np.all(np.abs(got[key]) <= 1.0), key

    def test_values_stay_in_the_unit_interval_at_equal_and_opposite_axes(self):
        # cos^2 + sin^2 can round above 1; the mesh is clipped to [-1, 1]
        theta = np.linspace(-4 * math.pi, 4 * math.pi, 10_001)
        got = DefinabilityEngine(HypothesisSet.parse("WR,Locality")).values(
            {SYM_E: theta, SYM_EP: theta.copy(), SYM_P: theta + math.pi})
        assert np.all(np.abs(got["<E,E'>"]) <= 1.0)
        assert np.all(np.abs(got["<E,P>"]) <= 1.0)

    def test_scalar_angles_give_0d_values(self):
        angles = {SYM_E: 0.3, SYM_EP: 0.3 + math.pi / 2, SYM_P: 0.1}
        engine = DefinabilityEngine(HypothesisSet.parse("WR,EACP,FWP"))
        got = engine.values(angles)
        assert got.keys() == {"<E,P>", "<E,E'>", "<E',P>"}
        for key, value in got.items():
            assert value.shape == () and not value.flags.writeable
        assert got["<E,E'>"] == 0.0
        assert got["<E,P>"] == pytest.approx(engine.status(SYM_E, SYM_P, angles).value, abs=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", AXES)
    def test_non_finite_angles_are_rejected_naming_the_axis(self, axis, value):
        engine = DefinabilityEngine(HypothesisSet.parse("WR,Locality"))
        angles = {s: np.array([0.0, 0.3]) for s in AXES}
        angles[axis] = np.array([0.3, value])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before np.cos sees the angle
            with pytest.raises(ValueError, match=re.escape(f"angle must be finite on axis {axis!r}")):
                engine.values(angles)
        with pytest.raises(ValueError, match="angle must be finite"):
            engine.status(SYM_E, axis if axis != SYM_E else SYM_P,
                          {**dict.fromkeys(AXES, 0.0), axis: value})

    @pytest.mark.parametrize("hyp", ["WR,Locality", "WR,EACP,FWP"])
    def test_pairs_over_equal_axis_arrays_share_one_buffer(self, hyp):
        # the V4 scan's shapes: both row axes on one grid, as distinct arrays
        grid = np.linspace(-math.pi, math.pi, 36, endpoint=False)
        angles = {SYM_E: grid[:, None], SYM_EP: grid.copy()[:, None],
                  SYM_P: grid[None, :], SYM_PP: np.zeros((1, 1))}
        got = DefinabilityEngine(HypothesisSet.parse(hyp)).values(angles)
        # <E,P> (twisted Malus) and <E',P> (Locality or EACP transfer): both -cos
        assert np.shares_memory(got["<E,P>"], got["<E',P>"])
        assert not np.shares_memory(got["<E,P>"], got["<P,P'>"])
        if hyp == "WR,Locality":
            assert np.shares_memory(got["<E,P'>"], got["<E',P'>"])
        else:  # <E',P'> is undefined without Locality
            assert not np.shares_memory(got["<E,P'>"], got["<E',P'>"])
            assert np.all(np.isnan(got["<E',P'>"]))

    @pytest.mark.parametrize("hyp", HYPOTHESIS_SUBSETS, ids=lambda h: h or "none")
    def test_lemma_zero_falls_where_the_scalar_status_puts_it(self, hyp):
        # A pi/4 grid on every axis puts orthogonal, equal and opposite axes
        # at many points; status takes cos of the wrapped difference.
        grid = np.arange(-4, 5) * (math.pi / 4)
        angles = {SYM_E: grid[:, None, None], SYM_EP: grid[None, :, None],
                  SYM_P: grid[None, None, :], SYM_PP: np.full((1, 1, 1), math.pi / 4)}
        engine = DefinabilityEngine(HypothesisSet.parse(hyp))
        got = engine.values(angles)
        full = dict(zip(angles, np.broadcast_arrays(*angles.values())))
        for a, b in SIX_PAIRS:
            value = got[pair_symbol(a, b)]
            for idx in np.ndindex(value.shape):
                status = engine.status(a, b, {s: float(full[s][idx]) for s in AXES})
                if status.value is None:
                    assert math.isnan(value[idx]), (hyp, a, b, idx)
                elif status.kind is StatusKind.ZERO_BY_NO_CORRELATION:
                    assert value[idx] == 0.0, (hyp, a, b, idx)
                else:
                    assert value[idx] == pytest.approx(status.value, abs=1e-15), (hyp, a, b, idx)

    @pytest.mark.parametrize("hyp", HYPOTHESIS_SUBSETS, ids=lambda h: h or "none")
    def test_values_warn_nothing_on_a_full_circle_mesh(self, hyp):
        grid = np.arange(-math.pi + math.pi / 180, math.pi + math.pi / 360, math.pi / 180)
        angles = {SYM_E: grid[:, None], SYM_EP: grid[None, :],
                  SYM_P: np.zeros((1, 1)), SYM_PP: grid[:, None]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DefinabilityEngine(HypothesisSet.parse(hyp)).values(angles)


class TestNoCorrelationCheck:
    N = 100_000

    def test_lhv_is_consistent_at_orthogonal_axes(self):
        report = no_correlation_check(LHVSign(), *V3_ANGLES, self.N, seed=0)
        assert report.orthogonal
        assert report.verdict.value == "consistent"
        assert abs(report.estimate.mean) <= report.tolerance
        lo, hi = report.estimate.interval(report.tolerance)
        assert lo <= 0.0 <= hi

    def test_collapse_sequential_is_a_witness(self):
        report = no_correlation_check(CollapseSequential(), *V3_ANGLES, self.N, seed=5)
        assert report.orthogonal
        assert report.verdict.value == "witness-of-eacp-violation"
        assert report.estimate.mean == pytest.approx(0.5, abs=4 / math.sqrt(self.N))

    def test_lhv_false_witness_rate_is_within_alpha(self):
        n, seeds = 10_000, 1_000
        reports = [no_correlation_check(LHVSign(), *V3_ANGLES, n, seed=s) for s in range(seeds)]
        alpha = reports[0].estimate.alpha(reports[0].tolerance)
        assert 0.01 < alpha < 0.011  # 2 * 15 checkpoints * exp(-8)
        witnesses = sum(r.verdict.value != "consistent" for r in reports)
        assert witnesses / seeds <= alpha

    def test_collapse_sequential_is_flagged_at_every_seed(self):
        for seed in range(200):
            report = no_correlation_check(CollapseSequential(), *V3_ANGLES, 10_000, seed=seed)
            assert report.verdict.value == "witness-of-eacp-violation", seed

    def test_non_orthogonal_axes_flagged(self):
        report = no_correlation_check(LHVSign(), 0.0, 1.0, 0.0, 10_000, seed=1)
        assert not report.orthogonal

    def test_default_tolerance_is_four_over_sqrt_n(self):
        report = no_correlation_check(LHVSign(), *V3_ANGLES, 10_000, seed=1)
        assert report.tolerance == pytest.approx(0.04)


def test_opposite_orientation_splits_equality_probability_exactly():
    # with E'' the reversed orientation of E', each pair matches E against
    # exactly one of E', E'': Prob(E=E') + Prob(E=E'') = 1, pair by pair
    rng = np.random.default_rng(17)
    phases = rng.integers(0, 2**32, 50_000, dtype=np.uint32)
    e = lhv_outcomes(phases, 0.0, Side.ALICE)
    ep = lhv_outcomes(phases, math.pi / 2, Side.ALICE)
    epp = lhv_outcomes(phases, math.pi / 2 + math.pi, Side.ALICE)
    assert np.array_equal(epp, -ep)
    matches = (e == ep).astype(int) + (e == epp).astype(int)
    assert np.all(matches == 1)
