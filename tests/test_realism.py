import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from belllab import realism
from belllab.core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    Side,
    correlate,
)
from belllab.quantum import pair_uniforms
from belllab.realism import (
    CollapseSequential,
    FileReplay,
    LHVSign,
    ReplayFormatError,
    UnsupportedAxisError,
    generate_block,
    lhv_outcomes,
    model_from_spec,
)

SQRT2 = math.sqrt(2.0)
V3_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}


def lhv_block(angles, n, seed=0):
    return generate_block(LHVSign(), Block(angles, count=n), seed)


def lhv_outcome(lam, theta, side):
    """One pair's hidden-variable outcome, through ``lhv_outcomes``."""
    return int(lhv_outcomes(np.array([lam]), theta, side)[0])


def collapse_sequential_assign(block, pair, theta_p, theta_e, theta_ep, seed):
    """One pair's (P, E, E') tuple under the measure-P-first rule.

    The scalar reference for ``CollapseSequential``: P is a fair coin; E
    and E' are independent measurements of the state |-P> prepared along
    theta_p.  The three draws are words 3*pair .. 3*pair + 2 of the block's
    stream, read as uniform doubles u = (w >> 11) * 2**-53.
    """
    words = pair_uniforms(block, seed, slice(pair, pair + 1), 3)[0]
    u = [(int(w) >> 11) * 2.0**-53 for w in words]
    p = 1 if u[0] < 0.5 else -1
    e = -p if u[1] < (1.0 + math.cos(theta_e - theta_p)) / 2.0 else p
    ep = -p if u[2] < (1.0 + math.cos(theta_ep - theta_p)) / 2.0 else p
    return p, e, ep


class TestLhvOutcome:
    def test_alice_aligned(self):
        assert lhv_outcome(0.0, 0.0, Side.ALICE) == 1

    def test_bob_is_negation(self):
        assert lhv_outcome(0.0, 0.0, Side.BOB) == -1

    def test_sign_flips_across_quarter_turn(self):
        assert lhv_outcome(0.0, math.pi / 2 - 0.01, Side.ALICE) == 1
        assert lhv_outcome(0.0, math.pi / 2 + 0.01, Side.ALICE) == -1

    def test_vectorized_matches_scalar(self):
        lambdas = np.linspace(0, math.tau, 37)
        outs = lhv_outcomes(lambdas, 1.1, Side.BOB)
        assert [lhv_outcome(l, 1.1, Side.BOB) for l in lambdas] == list(outs)


# pi to 60 digits; its error is far below the spacing of doubles near k*pi/2
PI_60 = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
ZEROS = {  # threshold -> (k, is the threshold the double just above k*pi/2)
    realism._Z1: (1, False),
    realism._Z3: (3, True),
    realism._Z5: (5, False),
    realism._Z7: (7, False),
}


def cos_reference(lambdas, theta, side):
    """The np.cos expression the threshold kernel must reproduce bit for bit."""
    c = np.cos(np.asarray(lambdas, dtype=np.float64) - float(theta))
    out = np.where(c >= 0.0, 1, -1).astype(np.int8)
    return out if side is Side.ALICE else (-out).astype(np.int8)


def assert_same_as_cos(lambdas, theta):
    for side in Side:
        got = lhv_outcomes(lambdas, theta, side)
        want = cos_reference(lambdas, theta, side)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)


def ulp_window(x, half_width):
    """Every double within half_width ulps of x, in order."""
    bits = np.array([x]).view(np.int64)[0]
    return (bits + np.arange(-half_width, half_width + 1)).view(np.float64)


class TestLhvThresholdKernel:
    @pytest.mark.parametrize("z", sorted(ZEROS))
    def test_thresholds_are_the_doubles_next_to_the_zeros_of_cos(self, z):
        k, above = ZEROS[z]
        zero = k * PI_60 / 2
        below_z, above_z = math.nextafter(z, -math.inf), math.nextafter(z, math.inf)
        if above:
            assert Fraction(below_z) < zero < Fraction(z)
        else:
            assert Fraction(z) < zero < Fraction(above_z)

    def test_first_threshold_is_math_pi_over_2(self):
        assert realism._Z1 == math.pi / 2

    def test_matches_cos_within_2_16_ulps_of_each_zero(self, monkeypatch):
        windows = np.concatenate(
            [ulp_window(s * k * math.pi / 2, 2**16) for k in (1, 3, 5, 7) for s in (1, -1)]
        )
        inner = windows[np.abs(windows) <= realism._Z7]
        outer = windows[np.abs(windows) > realism._Z7]
        want = {side: cos_reference(inner, 0.0, side) for side in Side}
        with monkeypatch.context() as m:  # the inner window never calls np.cos
            m.setattr(np, "cos", None)
            got = {side: lhv_outcomes(inner, 0.0, side) for side in Side}
        for side in Side:
            assert got[side].dtype == np.int8
            assert np.array_equal(got[side], want[side])
        assert_same_as_cos(outer, 0.0)

    def test_matches_cos_on_model_draws_at_100_angles(self):
        lambdas = LHVSign().lambdas(Block({SYM_E: 0.0}, count=20_000), 31)
        for theta in np.linspace(math.pi, -math.pi, 100, endpoint=False):
            assert_same_as_cos(lambdas, float(theta))

    @pytest.mark.parametrize(
        "lambdas",
        [
            [],
            [math.nan],
            [math.inf],
            [-math.inf],
            [0.5, math.nan, -math.inf, 2.0],
            [0.5, 7 * math.pi / 2 + 1e-9],
            [40.0, -1e300, 3.0],
        ],
        ids=["empty", "nan", "inf", "-inf", "mixed", "past-7pi/2", "far"],
    )
    def test_edge_inputs_give_the_same_values_and_warnings(self, lambdas):
        lam = np.array(lambdas, dtype=np.float64)
        for side in Side:
            with warnings.catch_warnings(record=True) as seen_got:
                warnings.simplefilter("always")
                got = lhv_outcomes(lam, 0.25, side)
            with warnings.catch_warnings(record=True) as seen_want:
                warnings.simplefilter("always")
                want = cos_reference(lam, 0.25, side)
            assert got.dtype == np.int8
            assert np.array_equal(got, want)
            assert [(w.category, str(w.message)) for w in seen_got] == [
                (w.category, str(w.message)) for w in seen_want
            ]


class TestLhvTwoPointFunction:
    N = 100_000

    @pytest.mark.parametrize("delta", [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    def test_same_side(self, delta):
        asg = lhv_block({SYM_E: 0.0, SYM_EP: delta}, self.N, seed=21)
        expected = 1 - 2 * delta / math.pi
        assert correlate(asg[SYM_E], asg[SYM_EP]).mean == pytest.approx(
            expected, abs=4 / math.sqrt(self.N)
        )

    @pytest.mark.parametrize("delta", [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    def test_opposite_side(self, delta):
        asg = lhv_block({SYM_E: 0.0, SYM_P: delta}, self.N, seed=22)
        expected = -1 + 2 * delta / math.pi
        assert correlate(asg[SYM_E], asg[SYM_P]).mean == pytest.approx(
            expected, abs=4 / math.sqrt(self.N)
        )

    def test_equal_axes_cancel_exactly_per_pair(self):
        # opposite-side same-angle values must sum to zero on every pair
        asg = lhv_block({SYM_E: 0.9, SYM_P: 0.9}, 50_000, seed=3)
        assert np.all(asg[SYM_E].values + asg[SYM_P].values == 0)

    def test_cross_correlation_at_three_quarter_gap(self):
        asg = lhv_block(V3_ANGLES, self.N, seed=4)
        assert correlate(asg[SYM_E], asg[SYM_P]).mean == pytest.approx(
            0.5, abs=4 / math.sqrt(self.N)
        )


class TestGenerateBlock:
    def test_one_sequence_per_axis(self):
        asg = lhv_block(V3_ANGLES, 64)
        assert set(asg) == set(V3_ANGLES)
        assert all(len(asg[s]) == 64 for s in V3_ANGLES)

    def test_deterministic_in_seed(self):
        a1 = lhv_block(V3_ANGLES, 500, seed=9)
        a2 = lhv_block(V3_ANGLES, 500, seed=9)
        assert all(
            np.array_equal(a1[s].values, a2[s].values) for s in V3_ANGLES
        )

    def test_measured_value_is_the_counterfactual_value(self):
        # the same per-pair tuple serves both roles: re-running the model
        # with a subset of the axes reproduces the same values
        full = lhv_block(V3_ANGLES, 1000, seed=5)
        only_e = lhv_block({SYM_E: V3_ANGLES[SYM_E]}, 1000, seed=5)
        assert np.array_equal(full[SYM_E].values, only_e[SYM_E].values)


class TestCollapseSequential:
    N = 100_000

    def test_correlations_at_the_three_angle_config(self):
        block = Block(V3_ANGLES, count=self.N)
        asg = generate_block(CollapseSequential(), block, seed=12)
        tol = 4 / math.sqrt(self.N)
        assert correlate(asg[SYM_P], asg[SYM_E]).mean == pytest.approx(SQRT2 / 2, abs=tol)
        assert correlate(asg[SYM_P], asg[SYM_EP]).mean == pytest.approx(SQRT2 / 2, abs=tol)
        # conditional independence gives cos(tE-tP)*cos(tE'-tP) = 1/2
        assert correlate(asg[SYM_E], asg[SYM_EP]).mean == pytest.approx(0.5, abs=tol)

    def test_equal_axes_forced_anti_correlation(self):
        block = Block({SYM_P: 0.4, SYM_E: 0.4}, count=10_000)
        asg = generate_block(CollapseSequential(), block, seed=2)
        assert np.all(asg[SYM_E].values + asg[SYM_P].values == 0)

    def test_p_prime_unsupported(self):
        block = Block({**V3_ANGLES, SYM_PP: 0.2}, count=10)
        with pytest.raises(UnsupportedAxisError):
            generate_block(CollapseSequential(), block, seed=0)

    def test_requires_p_axis(self):
        block = Block({SYM_E: 0.0, SYM_EP: 1.0}, count=10)
        with pytest.raises(UnsupportedAxisError):
            generate_block(CollapseSequential(), block, seed=0)

    def test_scalar_assign_matches_model(self):
        block = Block(V3_ANGLES, count=50)
        asg = generate_block(CollapseSequential(), block, seed=8)
        for i in (0, 7, 49):
            p, e, ep = collapse_sequential_assign(
                block, i, V3_ANGLES[SYM_P], V3_ANGLES[SYM_E], V3_ANGLES[SYM_EP], 8
            )
            assert (p, e, ep) == (
                asg[SYM_P].values[i],
                asg[SYM_E].values[i],
                asg[SYM_EP].values[i],
            )

    def test_p_marginal_unbiased(self):
        block = Block(V3_ANGLES, count=self.N)
        asg = generate_block(CollapseSequential(), block, seed=14)
        assert abs(np.mean(asg[SYM_P].values)) <= 4 / math.sqrt(self.N)

    def test_even_nonlocal_output_satisfies_the_finite_run_identity(self):
        # the identity binds any actual sequences, local or not
        from belllab.inequalities import sica_v3_check

        block = Block(V3_ANGLES, count=5000)
        asg = generate_block(CollapseSequential(), block, seed=6)
        assert sica_v3_check(asg[SYM_E], asg[SYM_P], asg[SYM_EP]) >= 0.0


class TestFileReplay:
    def write_vectors(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write_vectors(
            tmp_path,
            "E=0.5 E'=-1.0 P=0.0\n"
            "1 -1 1\n"
            "-1 -1 1\n"
            "1 1 -1\n",
        )
        block = Block({SYM_E: 0.5, SYM_EP: -1.0, SYM_P: 0.0}, count=3)
        asg = generate_block(FileReplay(path), block, seed=0)
        assert list(asg[SYM_E].values) == [1, -1, 1]
        assert list(asg[SYM_EP].values) == [-1, -1, 1]
        assert list(asg[SYM_P].values) == [1, 1, -1]

    def test_subset_of_file_axes(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5 P=0.0\n1 -1\n-1 1\n")
        block = Block({SYM_P: 0.0}, count=2)
        asg = generate_block(FileReplay(path), block, seed=0)
        assert list(asg[SYM_P].values) == [-1, 1]

    def test_angle_mismatch(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5 P=0.0\n1 -1\n")
        block = Block({SYM_E: 0.6, SYM_P: 0.0}, count=1)
        with pytest.raises(ReplayFormatError, match="angle mismatch"):
            generate_block(FileReplay(path), block, seed=0)

    def test_too_few_rows(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5\n1\n")
        block = Block({SYM_E: 0.5}, count=5)
        with pytest.raises(ReplayFormatError, match="data rows"):
            generate_block(FileReplay(path), block, seed=0)

    def test_bad_value(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5\n2\n")
        block = Block({SYM_E: 0.5}, count=1)
        with pytest.raises(ReplayFormatError, match="\\+1 or -1"):
            generate_block(FileReplay(path), block, seed=0)

    def test_errors_name_the_physical_line(self, tmp_path):
        path = self.write_vectors(
            tmp_path, "E=0.5 P=0.0\n# a comment\n\n1 -1\n2 1\n"
        )
        block = Block({SYM_E: 0.5, SYM_P: 0.0}, count=2)
        with pytest.raises(ReplayFormatError, match="line 5: values must be"):
            generate_block(FileReplay(path), block, seed=0)

    def test_ragged_row(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5 P=0.0\n1\n")
        block = Block({SYM_E: 0.5, SYM_P: 0.0}, count=1)
        with pytest.raises(ReplayFormatError, match="values, expected"):
            generate_block(FileReplay(path), block, seed=0)

    def test_bad_header(self, tmp_path):
        path = self.write_vectors(tmp_path, "E:0.5\n1\n")
        block = Block({SYM_E: 0.5}, count=1)
        with pytest.raises(ReplayFormatError, match="symbol=angle"):
            generate_block(FileReplay(path), block, seed=0)

    def test_missing_axis(self, tmp_path):
        path = self.write_vectors(tmp_path, "E=0.5\n1\n")
        block = Block({SYM_E: 0.5, SYM_P: 0.0}, count=1)
        with pytest.raises(ReplayFormatError, match="not in header"):
            generate_block(FileReplay(path), block, seed=0)


def test_model_from_spec():
    assert isinstance(model_from_spec("lhv-sign"), LHVSign)
    assert isinstance(model_from_spec("collapse_sequential"), CollapseSequential)
    assert isinstance(model_from_spec("file-replay", "x.txt"), FileReplay)
    with pytest.raises(ValueError, match="needs a path"):
        model_from_spec("file-replay")
    with pytest.raises(ValueError, match="unknown"):
        model_from_spec("bohmian")
