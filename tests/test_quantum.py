import math

import numpy as np
import pytest

from belllab.core import SYM_E, SYM_EP, SYM_P, Block
from belllab.quantum import (
    SingletSource,
    born_outcomes,
    pair_uniforms,
    twisted_malus,
)

SQRT2 = math.sqrt(2.0)


def measure(seed, theta_a, theta_b, count, index=0):
    block = Block({SYM_E: theta_a, SYM_P: theta_b}, count=count, index=index)
    return SingletSource().sample_pairs(block, seed)


def prepared(seed, signs, axis_angle, theta, column=1):
    """Measure prepared states |sign> along ``axis_angle`` at ``theta``."""
    signs = np.asarray(signs)
    u = pair_uniforms(seed, 0, signs.size)[:, column]
    return born_outcomes(signs, theta - axis_angle, u)


class TestTwistedMalus:
    def test_equal_axes_perfectly_anti_correlated(self):
        assert twisted_malus(0.0, 0.0) == -1.0

    def test_orthogonal_axes(self):
        assert twisted_malus(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarter_turn(self):
        assert twisted_malus(3 * math.pi / 4, 0.0) == pytest.approx(
            SQRT2 / 2, abs=1e-12
        )


class TestSamplePair:
    def test_equal_axes_always_opposite(self):
        a, b = measure(11, 0.7, 0.7, 50_000)
        assert np.all(a + b == 0)

    def test_orthogonal_axes_uncorrelated(self):
        n = 100_000
        a, b = measure(5, 0.0, math.pi / 2, n)
        assert abs(np.mean(a * b)) <= 4 / math.sqrt(n)

    def test_monte_carlo_matches_analytic(self):
        # empirical correlation against -cos(delta) for several separations
        n = 100_000
        for seed, (ta, tb) in enumerate(
            [(3 * math.pi / 4, 0.0), (0.3, 1.0), (-1.2, 0.4)]
        ):
            a, b = measure(seed, ta, tb, n)
            assert np.mean(a * b) == pytest.approx(
                twisted_malus(ta, tb), abs=4 / math.sqrt(n)
            )

    def test_marginals_unbiased(self):
        n = 200_000
        a, b = measure(9, 0.9, -0.4, n)
        assert abs(np.mean(a)) <= 4 / math.sqrt(n)
        assert abs(np.mean(b)) <= 4 / math.sqrt(n)

    def test_single_pair_api(self):
        a, b = measure(1, 0.0, 0.0, 1)
        assert a.shape == b.shape == (1,)
        assert a[0] in (-1, 1) and b[0] == -a[0]

    @pytest.mark.parametrize(
        "angles",
        [{SYM_E: 0.0}, {SYM_E: 0.0, SYM_EP: 1.0}, {SYM_E: 0.0, SYM_EP: 1.0, SYM_P: 0.0}],
    )
    def test_needs_one_alice_and_one_bob_axis(self, angles):
        with pytest.raises(ValueError, match="one Alice axis and one Bob axis"):
            SingletSource().sample_pairs(Block(angles, count=2), 0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a1, b1 = measure(123, 0.2, 0.9, 1000)
        a2, b2 = measure(123, 0.2, 0.9, 1000)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_chunking_does_not_change_stream(self):
        # blocks 0-3 of 250 pairs start at Block.first_pair = 0, 250, 500, 750
        parts = [measure(77, 0.1, 0.5, 250, index=k) for k in range(4)]
        whole_a, whole_b = measure(77, 0.1, 0.5, 1000)
        assert np.array_equal(np.concatenate([p[0] for p in parts]), whole_a)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), whole_b)

    def test_pair_uniforms_pure_in_pair_index(self):
        u = pair_uniforms(42, 0, 100)
        v = pair_uniforms(42, 60, 40)
        assert np.array_equal(u[60:], v)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(-1, 0, 1)
        with pytest.raises(ValueError, match="64-bit"):
            pair_uniforms(2**64, 0, 1)


class TestCollapse:
    def test_remeasuring_same_axis_is_deterministic(self):
        # a +1 outcome leaves the partner in |-> along the same axis
        outs = prepared(4, np.full(200, -1), 0.6, 0.6)
        assert set(outs) == {-1}


class TestSamplePrepared:
    def test_eigenstate(self):
        assert np.all(prepared(8, np.ones(100), 0.0, 0.0) == 1)

    def test_opposite_orientation(self):
        assert np.all(prepared(8, np.ones(100), 0.0, math.pi) == -1)

    def test_orthogonal_axis_unbiased(self):
        n = 100_000
        outs = prepared(15, np.ones(n, dtype=np.int8), 0.0, math.pi / 2)
        assert abs(np.mean(outs)) <= 4 / math.sqrt(n)

    def test_expectation_is_sign_times_cosine(self):
        n = 100_000
        for seed, (sign, alpha, theta) in enumerate(
            [(1, 0.0, 0.8), (-1, 0.5, -0.9), (1, 2.0, 2.9)]
        ):
            outs = prepared(100 + seed, np.full(n, sign, dtype=np.int8), alpha, theta)
            assert np.mean(outs) == pytest.approx(
                sign * math.cos(theta - alpha), abs=4 / math.sqrt(n)
            )


def test_chained_consistency():
    # measure B, collapse the partner, then measure the prepared state at a
    # fresh angle: the (prepared, B) correlation must follow the singlet law
    n = 200_000
    theta_b, theta_e = 0.4, 2.1
    _, b = measure(31, 0.4, theta_b, n)  # A side discarded
    # columns 0 and 1 drew the pair; column 2 of the same pairs is unused
    e = prepared(31, -b, theta_b, theta_e, column=2)
    assert np.mean(e * b) == pytest.approx(
        twisted_malus(theta_e, theta_b), abs=4 / math.sqrt(n)
    )
