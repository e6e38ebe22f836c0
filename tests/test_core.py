import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from belllab.core import (
    Angle,
    Block,
    OutcomeSequence,
    RunningCorrelation,
    correlate,
    default_burn_in,
    pair_symbol,
)


def seq(values):
    return OutcomeSequence(values)


class TestAngle:
    def test_wraps_into_half_open_interval(self):
        assert Angle(3 * math.pi / 2).radians == pytest.approx(-math.pi / 2)
        assert Angle(math.pi).radians == math.pi
        assert Angle(-math.pi).radians == math.pi
        assert Angle(0.0).radians == 0.0

    @given(st.floats(-50.0, 50.0))
    def test_normalization_idempotent(self, x):
        once = Angle(x)
        assert Angle(once.radians).radians == once.radians
        assert -math.pi < once.radians <= math.pi

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_difference_is_an_angle(self, a, b):
        d = Angle(a) - Angle(b)
        assert isinstance(d, Angle)
        assert -math.pi < d.radians <= math.pi


class TestAngleBetween:
    """The signed angle from one axis to another is ``a2 - a1``."""

    def test_quarter_turn(self):
        assert (Angle(math.pi / 2) - Angle(0.0)).radians == pytest.approx(math.pi / 2)

    def test_wrap_around(self):
        # 3pi/4 to -3pi/4 crosses the branch cut; magnitude is a right angle
        d = Angle(-3 * math.pi / 4) - Angle(3 * math.pi / 4)
        assert abs(d.radians) == pytest.approx(math.pi / 2)

    def test_identical_axes(self):
        assert (Angle(1.234) - Angle(1.234)).radians == 0.0

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_antisymmetric_up_to_normalization(self, a, b):
        fwd = (Angle(b) - Angle(a)).radians
        rev = (Angle(a) - Angle(b)).radians
        assert abs(fwd) <= math.pi
        assert Angle(fwd + rev).radians == pytest.approx(0.0, abs=1e-12)


class TestCorrelate:
    def test_self_correlation(self):
        u = seq([1, -1, 1])
        assert correlate(u, u).mean == 1.0

    def test_anti_correlation(self):
        assert correlate(seq([1, -1]), seq([-1, 1])).mean == -1.0

    def test_balanced_products(self):
        assert correlate(seq([1, 1, -1, -1]), seq([1, -1, 1, -1])).mean == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            correlate(seq([1, 1]), seq([1]))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            correlate(seq([]), seq([]))

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128))
    def test_self_and_negated(self, values):
        u = seq(values)
        assert correlate(u, u).mean == 1.0
        assert correlate(u, OutcomeSequence(-u.values)).mean == -1.0

    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128),
        st.randoms(use_true_random=False),
    )
    def test_extrema_bracket_mean_past_burn_in(self, values, rnd):
        v = [rnd.choice([-1, 1]) for _ in values]
        est = correlate(seq(values), seq(v))
        assert est.running_min_mean <= est.mean <= est.running_max_mean
        assert -1.0 <= est.mean <= 1.0


def reference_estimate(u, v, burn_in):
    """(sum, min, max) of the partial means, one pair at a time."""
    total, partial = 0, []
    for i, (a, b) in enumerate(zip(u, v)):
        total += a * b
        if i >= burn_in:
            partial.append(total / (i + 1))
    mean = total / len(u)
    return total, min(partial, default=mean), max(partial, default=mean)


class TestRunningCorrelation:
    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128),
        st.randoms(use_true_random=False),
    )
    def test_any_split_gives_the_reference_estimate(self, values, rnd):
        v = [rnd.choice([-1, 1]) for _ in values]
        n = len(values)
        cuts = sorted(rnd.choices(range(n + 1), k=rnd.randint(0, 8)))  # may repeat
        running = RunningCorrelation(n)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            running.add(seq(values).values[lo:hi], seq(v).values[lo:hi])
        est = running.estimate()
        assert est == correlate(seq(values), seq(v))
        assert (est.sum_products, est.running_min_mean, est.running_max_mean) == (
            reference_estimate(values, v, default_burn_in(n))
        )

    def test_fed_length_must_match(self):
        running = RunningCorrelation(3)
        running.add(seq([1, 1]).values, seq([1, -1]).values)
        with pytest.raises(ValueError, match="2 of 3"):
            running.estimate()
        running.add(seq([1, 1]).values, seq([1, 1]).values)
        with pytest.raises(ValueError, match="4 of 3"):
            running.estimate()


class TestOutcomeSequence:
    def test_rejects_non_unit_values(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            seq([1, 0, -1])

    def test_values_immutable(self):
        q = seq([1, -1])
        with pytest.raises(ValueError):
            q.values[0] = -1


class TestBlock:
    def test_stores_wrapped_angles(self):
        b = Block({"E": 0.1, "P'": 3 * math.pi / 2, "P": Angle(0.2)}, count=5)
        assert b.axes == {"E": Angle(0.1), "P'": Angle(3 * math.pi / 2), "P": Angle(0.2)}
        assert b.axes["P'"].radians == pytest.approx(-math.pi / 2)

    def test_count_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            Block({"E": 0.0}, count=0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown axis symbol: 'Q'"):
            Block({"E": 0.0, "Q": 0.0}, count=1)

    def test_first_pair_is_index_times_count(self):
        assert Block({"E": 0.0}, count=250).first_pair == 0
        assert Block({"E": 0.0}, count=250, index=3).first_pair == 750


def test_pair_symbol_is_canonical():
    assert pair_symbol("P", "E") == "<E,P>"
    assert pair_symbol("E", "P") == "<E,P>"
    assert pair_symbol("P'", "E'") == "<E',P'>"
    with pytest.raises(ValueError):
        pair_symbol("E", "Q")


def test_default_burn_in_is_ceil_sqrt():
    assert default_burn_in(0) == 0
    assert default_burn_in(1) == 1
    assert default_burn_in(4) == 2
    assert default_burn_in(10) == 4
    assert default_burn_in(1_000_000) == 1000
