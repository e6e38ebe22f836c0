import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab.core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    Side,
    correlate,
)
from belllab.quantum import born_threshold, pair_uniforms, refinement_words
from belllab.realism import (
    CollapseSequential,
    FileReplay,
    LHVSign,
    ReplayFormatError,
    UnsupportedAxisError,
    generate_block,
    half_turn_start,
    lhv_disagreement_counts,
    lhv_outcomes,
    model_from_spec,
)

SQRT2 = math.sqrt(2.0)
V3_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}


def lhv_block(angles, n, seed=0):
    return generate_block(LHVSign(), Block(angles, count=n), seed)


TURN = 2**32  # phase lanes in one turn


def phases_of(lambdas):
    """The phase lanes nearest to angles in radians: lam / 2*pi of a turn."""
    lanes = [round(lam / math.tau * TURN) % TURN for lam in lambdas]
    return np.array(lanes, dtype=np.uint32)


def lhv_outcome(lam, theta, side):
    """One pair's hidden-variable outcome, through ``lhv_outcomes``."""
    return int(lhv_outcomes(phases_of([lam]), theta, side)[0])


def collapse_sequential_assign(block, pair, theta_p, theta_e, theta_ep, seed):
    """One pair's (P, E, E') tuple under the measure-P-first rule.

    The scalar reference for ``CollapseSequential``: P is a fair coin; E
    and E' are independent measurements of the state |-P> prepared along
    theta_p.  The pair reads its 16-bit lane l of columns 0 and 1 and its
    32-bit refinement word r of each column's refinement region: P is bit 0
    of the column-0 lane, and E and E' compare the 47-bit uniform doubles
    u = ((l >> 1) * 2**32 + r) * 2**-47 of columns 0 and 1.
    """
    span = slice(pair, pair + 1)
    lanes = [int(pair_uniforms(block, seed, span, column)[0]) for column in (0, 1)]
    words = [int(refinement_words(block, seed, column, pair, [0])[0]) for column in (0, 1)]
    u = [((w >> 1) * 2**32 + r) * 2.0**-47 for w, r in zip(lanes, words)]
    p = -1 if lanes[0] & 1 else 1
    e = -p if u[0] < (1.0 + math.cos(theta_e - theta_p)) / 2.0 else p
    ep = -p if u[1] < (1.0 + math.cos(theta_ep - theta_p)) / 2.0 else p
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
        outs = lhv_outcomes(phases_of(lambdas), 1.1, Side.BOB)
        assert [lhv_outcome(l, 1.1, Side.BOB) for l in lambdas] == list(outs)


def start_lane(theta):
    """The first phase lane of the +1 half-turn along theta in (-pi, pi]:
    theta - pi/2 as a fraction of a turn."""
    return (round(theta / math.tau * TURN) - TURN // 4) % TURN


# the lanes on either side of each half-turn's edges at theta = +-pi/2
EDGE_LANES = [0, 1, 2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1, 2**31, 2**31 + 1,
              3 * 2**30 - 1, 3 * 2**30, 3 * 2**30 + 1, TURN - 1]
lanes = st.lists(st.integers(0, TURN - 1), min_size=1, max_size=64)


def sign_of_cos(phases, theta):
    """sign(cos(lam - theta)) for lam = l * 2*pi / 2**32, and where that
    angle is at least 1e-9 rad from a zero of cos."""
    x = phases.astype(np.float64) * (math.tau / TURN) - theta
    r = np.remainder(x - math.pi / 2, math.pi)  # zeros of cos at r = 0 and pi
    return np.where(np.cos(x) >= 0.0, 1, -1), np.minimum(r, math.pi - r) >= 1e-9


class TestLhvPhaseKernel:
    @settings(max_examples=300, deadline=None)
    @given(lanes, st.floats(-math.pi, math.pi))
    def test_is_the_sign_of_cos_away_from_its_zeros(self, ws, theta):
        phases = np.array(ws, dtype=np.uint32)
        want, far = sign_of_cos(phases, theta)
        for side, sign in ((Side.ALICE, 1), (Side.BOB, -1)):
            got = lhv_outcomes(phases, theta, side)
            assert np.array_equal(got[far], sign * want[far])

    def test_matches_cos_on_model_draws_at_100_angles(self):
        for theta in np.linspace(math.pi, -math.pi, 100, endpoint=False):
            block = Block({SYM_E: float(theta), SYM_P: float(theta)}, count=20_000)
            got = LHVSign().assign(block, 31, slice(None))
            want, far = sign_of_cos(pair_uniforms(block, 31, slice(None), 0, 32), theta)
            assert far.mean() > 0.99
            assert got[SYM_E].dtype == np.int8
            assert np.array_equal(got[SYM_E][far], want[far])
            assert np.array_equal(got[SYM_P], -got[SYM_E])

    @pytest.mark.parametrize(
        "theta", [0.0, math.pi / 2, -math.pi / 2, math.pi, 0.3, -2.5, 3 * math.pi / 4]
    )
    def test_the_plus_half_turn_is_start_to_start_plus_2_31(self, theta):
        start = start_lane(theta)
        edges = [(start + d) % TURN for d in (-1, 0, 2**31 - 1, 2**31)]
        phases = np.array(edges, dtype=np.uint32)
        assert lhv_outcomes(phases, theta, Side.ALICE).tolist() == [-1, 1, 1, -1]
        assert lhv_outcomes(phases, theta, Side.BOB).tolist() == [1, -1, -1, 1]

    @settings(max_examples=100, deadline=None)
    @given(lanes)
    def test_opposite_axes_negate_on_every_word(self, ws):
        phases = np.array(ws + EDGE_LANES, dtype=np.uint32)
        up = lhv_outcomes(phases, math.pi / 2, Side.ALICE)
        down = lhv_outcomes(phases, -math.pi / 2, Side.ALICE)
        assert np.array_equal(down, -up)
        assert np.array_equal(lhv_outcomes(phases, math.pi / 2, Side.BOB), down)

    @pytest.mark.parametrize(
        "phases",
        [np.array([0.5, 1.0]), np.array([1, 2]), np.array([1], dtype=np.uint64), [0, 1]],
        ids=["float64", "int64", "uint64", "list"],
    )
    def test_phases_must_be_uint32(self, phases):
        with pytest.raises(TypeError, match="uint32"):
            lhv_outcomes(phases, 0.0, Side.ALICE)
        with pytest.raises(TypeError, match="uint32"):
            lhv_disagreement_counts(phases, [(0, 2**30)])

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, np.array(math.nan)])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(ValueError, match="finite"):
            lhv_outcomes(np.zeros(3, dtype=np.uint32), theta, Side.ALICE)


ARC_GAPS = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, TURN - 1]


def outcomes_from(phases, start):
    """``lhv_outcomes`` on Alice's side along the angle whose +1 half-turn
    starts at phase lane ``start``."""
    theta = (start + TURN // 4) / TURN * math.tau
    assert half_turn_start(theta, Side.ALICE) == start
    return lhv_outcomes(phases, theta, Side.ALICE)


def differ_count(phases, start_a, start_b):
    return int(np.count_nonzero(outcomes_from(phases, start_a) != outcomes_from(phases, start_b)))


class TestLhvDisagreementCounts:
    @settings(max_examples=300, deadline=None)
    @given(lanes, st.integers(0, TURN - 1), st.sampled_from(ARC_GAPS) | st.integers(0, TURN - 1))
    def test_counts_the_outcomes_that_differ(self, ws, start_a, d):
        start_b = (start_a + d) % TURN
        near = [(s + k) % TURN for s in (start_a, start_b) for k in (-1, 0, 1, 2**31)]
        phases = np.array(ws + EDGE_LANES + near, dtype=np.uint32)
        (got,) = lhv_disagreement_counts(phases, [(start_a, start_b)])
        assert got == differ_count(phases, start_a, start_b)
        if d in (0, 2**31):  # the same half-turn, or the opposite one
            assert got == (0 if d == 0 else phases.size)

    @settings(max_examples=300, deadline=None)
    @given(
        lanes,
        st.lists(st.integers(0, TURN - 1), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(ARC_GAPS) | st.integers(0, TURN - 1)),
            min_size=1, max_size=8,
        ),
    )
    def test_counts_of_many_starts_share_their_thresholds(self, ws, firsts, gaps):
        # first starts repeat, and one sits 2**31 from another: equal doubled starts
        firsts = [*firsts, (firsts[0] + 2**31) % TURN]
        starts = [(firsts[i % len(firsts)], (firsts[i % len(firsts)] + d) % TURN) for i, d in gaps]
        # the lanes at and next to each doubled start's two thresholds
        near = [(s + k) % TURN for pair in starts for s in pair
                for k in (-1, 0, 1, 2**31 - 1, 2**31, 2**31 + 1)]
        phases = np.array(ws + EDGE_LANES + near, dtype=np.uint32)
        want = [differ_count(phases, a, b) for a, b in starts]
        assert lhv_disagreement_counts(phases, starts) == want

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-math.pi, math.pi),
        other=st.floats(-math.pi, math.pi),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_model_counts_are_the_assigned_outcomes_compared(self, theta, other, seed):
        # both sides, an equal axis across sides and an opposite one on Bob's
        axes = {SYM_E: theta, SYM_EP: other, SYM_P: theta, SYM_PP: theta + math.pi}
        block = Block(axes, count=300, index=2)
        pairs = [*itertools.combinations(axes, 2), (SYM_E, SYM_E), (SYM_PP, SYM_E)]
        outcomes = LHVSign().assign(block, seed, slice(None))
        counts = LHVSign().disagreement_counts(block, seed, slice(None), pairs)
        for (a, b), count in zip(pairs, counts):
            assert count == np.count_nonzero(outcomes[a] != outcomes[b]), (a, b)
        assert counts[pairs.index((SYM_E, SYM_P))] == 300
        assert counts[pairs.index((SYM_E, SYM_E))] == 0

    @pytest.mark.parametrize("d", [0, 1, 2**31 - 1, 2**31])
    def test_gaps_at_the_edges(self, d):
        # d = 0 never differs, d = 2**31 always; one lane in 2**31 at d = 1
        start_a = start_lane(0.7)
        phases = np.arange(0, TURN, 2**20 - 1, dtype=np.uint64).astype(np.uint32)
        phases = np.concatenate([phases, np.array(EDGE_LANES, dtype=np.uint32)])
        (got,) = lhv_disagreement_counts(phases, [(start_a, (start_a + d) % TURN)])
        x = (phases.astype(np.int64) - start_a) % 2**31
        assert got == (np.count_nonzero(x < d) if d < 2**31 else phases.size)
        assert got == differ_count(phases, start_a, (start_a + d) % TURN)


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

    def test_scalar_assign_matches_model_at_forced_ties(self):
        # E's threshold ties with pair 3's column-0 lane and E''s with pair
        # 11's column-1 lane, so both pairs' draws read a refinement word
        block = Block(V3_ANGLES, count=50, index=9)
        angles = []
        for column, pair in ((0, 3), (1, 11)):
            h = int(pair_uniforms(block, 8, slice(None), column)[pair]) >> 1
            angles.append(math.acos(2 * (h + 0.5) / 2**15 - 1))
            assert int(born_threshold((1.0 + math.cos(angles[-1])) / 2.0)[0]) == h
        block = Block({SYM_P: 0.0, SYM_E: angles[0], SYM_EP: angles[1]}, count=50, index=9)
        asg = CollapseSequential().assign(block, 8, slice(None))
        for i in (3, 11):
            want = collapse_sequential_assign(block, i, 0.0, angles[0], angles[1], 8)
            assert want == (asg[SYM_P][i], asg[SYM_E][i], asg[SYM_EP][i])

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
