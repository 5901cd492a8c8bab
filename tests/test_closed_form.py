"""Analytic discrepancy values between Gaussian distributions."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
from mvdtest import (
    GaussianSpec,
    cov_operator_inner,
    cov_operator_norm_sq,
    mean_embedding_inner,
    mean_embedding_norm_sq,
    mmd_sq_gaussian,
    mmd_sq_isotropic,
    mvd_mmd_curves,
    mvd_sq_gaussian,
    mvd_sq_isotropic,
)
from mvdtest.closed_form import _cov_inner, _mean_inner, _one_two_term

# Frozen quadrature values (independent numeric integration of the defining
# Gaussian integrals, absolute error < 1e-8).
QUAD_MVD_0_4 = 0.027936689350921917     # mean 0, var 4, sigma 0.5
QUAD_MVD_08_2 = 0.023421169381862394    # mean 0.8, var 2, sigma 0.3
QUAD_MMD_1_1 = 0.1772676349115464       # mean 1, var 1, sigma 0.5
QUAD_MEAN_NORM = 0.44721359550033457    # N(0.3, 2), sigma 0.5
SAMPLED_MMD_1_1 = 0.17590796766651806   # same MMD case, 1e6 Monte Carlo pairs
SAMPLED_MMD_SE = 0.0008587106713406357


def _random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


class TestGaussianSpec:
    def test_standard(self):
        q = GaussianSpec.standard(3)
        np.testing.assert_array_equal(q.mean, np.zeros(3))
        np.testing.assert_array_equal(q.cov, np.eye(3))
        assert q.dim == 3

    def test_isotropic(self):
        q = GaussianSpec.isotropic(0.5, 2.0, 4)
        np.testing.assert_array_equal(q.mean, 0.5 * np.ones(4))
        np.testing.assert_array_equal(q.cov, 2.0 * np.eye(4))

    def test_scalar_mean_and_cov(self):
        q = GaussianSpec([0.3], [[2.0]])
        assert q.dim == 1

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match mean length"):
            GaussianSpec(np.zeros(2), np.eye(3))

    def test_rejects_asymmetric_cov(self):
        cov = np.eye(2)
        cov[0, 1] = 0.2
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianSpec(np.zeros(2), cov)

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="not positive definite"):
            GaussianSpec(np.zeros(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianSpec([0.0, bad], np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_cov(self, bad):
        with pytest.raises(ValueError, match="cov must be finite"):
            GaussianSpec(np.zeros(2), bad * np.ones((2, 2)))

    @pytest.mark.parametrize("t,s,match", [(0.5, math.inf, "variance scale s must be > 0 and finite, got inf"),
                                           (0.5, -math.inf, "variance scale s must be > 0 and finite, got -inf"),
                                           (0.5, math.nan, "variance scale s must be > 0 and finite, got nan"),
                                           (math.inf, 2.0, "mean must be finite")])
    def test_isotropic_refuses_non_finite_without_warnings(self, t, s, match):
        # s * np.eye(d) would compute inf * 0 off the diagonal and warn if s were not refused first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(match)):
                GaussianSpec.isotropic(t, s, 3)

    # "1" raised a TypeError that named no field, and True ran as s = 1.
    @pytest.mark.parametrize("s", [0.0, -1.0, "1", True])
    def test_isotropic_refuses_a_non_positive_scale(self, s):
        with pytest.raises(ValueError, match=re.escape(f"variance scale s must be > 0 and finite, got {s!r}")):
            GaussianSpec.isotropic(0.5, s, 3)

    def test_rejects_matrix_mean(self):
        with pytest.raises(ValueError, match="mean must be a vector"):
            GaussianSpec(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("d", [0, -3, 2.5, True])
    def test_constructors_reject_a_bad_dimension(self, d):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
            GaussianSpec.standard(d)
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
            GaussianSpec.isotropic(0.5, 2.0, d)

    def test_rejects_an_empty_mean(self):
        with pytest.raises(ValueError, match="d must be an integer >= 1, got 0"):
            GaussianSpec([], np.zeros((0, 0)))

    def test_accepts_numpy_integer_dimension(self):
        assert GaussianSpec.standard(np.int64(3)).dim == 3


class TestAgainstQuadrature:
    def test_mvd_centered(self):
        got = mvd_sq_gaussian(GaussianSpec([0.0], [[4.0]]), 0.5)
        np.testing.assert_allclose(got, QUAD_MVD_0_4, atol=2e-8)

    def test_mvd_shifted(self):
        got = mvd_sq_gaussian(GaussianSpec([0.8], [[2.0]]), 0.3)
        np.testing.assert_allclose(got, QUAD_MVD_08_2, atol=2e-8)

    def test_mmd(self):
        got = mmd_sq_gaussian(GaussianSpec([1.0], [[1.0]]), 0.5)
        np.testing.assert_allclose(got, QUAD_MMD_1_1, atol=2e-8)

    def test_mmd_against_monte_carlo(self):
        got = mmd_sq_gaussian(GaussianSpec([1.0], [[1.0]]), 0.5)
        assert abs(got - SAMPLED_MMD_1_1) < 3 * SAMPLED_MMD_SE

    def test_mean_embedding_norm(self):
        got = mean_embedding_norm_sq(GaussianSpec([0.3], [[2.0]]), 0.5)
        np.testing.assert_allclose(got, QUAD_MEAN_NORM, atol=2e-8)

    def test_mean_embedding_inner_live(self):
        p = GaussianSpec([0.3], [[1.4]])
        q = GaussianSpec([-0.5], [[0.7]])
        got = mean_embedding_inner(p, q, 0.35)
        want = ref.mean_inner_by_quadrature(0.3, 1.4, -0.5, 0.7, 0.35)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_cov_operator_inner_live(self):
        p = GaussianSpec([0.3], [[1.4]])
        q = GaussianSpec([-0.5], [[0.7]])
        got = cov_operator_inner(p, q, 0.35)
        want = ref.cov_inner_by_quadrature(0.3, 1.4, -0.5, 0.7, 0.35)
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestOperatorDecomposition:
    """The squared discrepancies decompose as |P|^2 + |Q|^2 - 2<P, Q>."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mvd(self, d):
        rng = np.random.default_rng(70 + d)
        p = GaussianSpec(rng.normal(size=d), _random_spd(rng, d))
        q = GaussianSpec(rng.normal(size=d), _random_spd(rng, d))
        whole = (cov_operator_norm_sq(p, 0.2) + cov_operator_norm_sq(q, 0.2)
                 - 2 * cov_operator_inner(p, q, 0.2))
        assert whole >= -1e-12
        # the one-argument closed form covers the standard-vs-general pair
        direct = mvd_sq_gaussian(q, 0.2)
        via_parts = (cov_operator_norm_sq(GaussianSpec.standard(d), 0.2)
                     + cov_operator_norm_sq(q, 0.2)
                     - 2 * cov_operator_inner(GaussianSpec.standard(d), q, 0.2))
        np.testing.assert_allclose(direct, via_parts, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mmd(self, d):
        rng = np.random.default_rng(80 + d)
        q = GaussianSpec(rng.normal(size=d), _random_spd(rng, d))
        direct = mmd_sq_gaussian(q, 0.2)
        via_parts = (mean_embedding_norm_sq(GaussianSpec.standard(d), 0.2)
                     + mean_embedding_norm_sq(q, 0.2)
                     - 2 * mean_embedding_inner(GaussianSpec.standard(d), q, 0.2))
        np.testing.assert_allclose(direct, via_parts, rtol=1e-10)

    def test_self_inner_is_norm(self):
        rng = np.random.default_rng(90)
        p = GaussianSpec(rng.normal(size=2), _random_spd(rng, 2))
        np.testing.assert_allclose(cov_operator_inner(p, p, 0.3),
                                   cov_operator_norm_sq(p, 0.3), rtol=1e-12)
        np.testing.assert_allclose(mean_embedding_inner(p, p, 0.3),
                                   mean_embedding_norm_sq(p, 0.3), rtol=1e-12)

    def test_inner_is_symmetric(self):
        rng = np.random.default_rng(91)
        p = GaussianSpec(rng.normal(size=2), _random_spd(rng, 2))
        q = GaussianSpec(rng.normal(size=2), _random_spd(rng, 2))
        np.testing.assert_allclose(cov_operator_inner(p, q, 0.25),
                                   cov_operator_inner(q, p, 0.25), rtol=1e-12)

    @pytest.mark.parametrize("d, t, s, sigma, c", [(1, 0.22, 1.63, 0.09, -0.2), (2, 0.66, 0.31, 0.21, 0.1)])
    def test_squared_mean_term_is_correctly_rounded(self, d, t, s, sigma, c):
        # For these cases glibc's pow gives _mean_inner(...) ** 2 one ulp off
        # its true square, and that ulp reaches the sum of the four terms.
        p, q = GaussianSpec.standard(d), GaussianSpec.isotropic(t, s, d)
        m = _mean_inner(p, q, sigma, c)
        rest = (_mean_inner(p, q, 2.0 * sigma, 2.0 * c) - _one_two_term(p, q, sigma, 2.0 * c)
                - _one_two_term(q, p, sigma, 2.0 * c))
        assert _cov_inner(p, q, sigma, c) == rest + float(Fraction(m) ** 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mean_embedding_inner(GaussianSpec.standard(2), GaussianSpec.standard(3), 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cov_operator_inner(GaussianSpec.standard(2), GaussianSpec.standard(3), 0.5)


class TestIsotropicSpecialization:
    def test_spot_agreement(self):
        for t, s, d, sg in [(0.5, 2.0, 5, 0.1), (1.0, 0.5, 3, 0.05), (0.0, 2.0, 7, 0.2)]:
            q = GaussianSpec.isotropic(t, s, d)
            np.testing.assert_allclose(mvd_sq_isotropic(t, s, d, sg), mvd_sq_gaussian(q, sg),
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(mmd_sq_isotropic(t, s, d, sg), mmd_sq_gaussian(q, sg),
                                       rtol=1e-12, atol=1e-15)

    def test_vanishes_when_distributions_match(self):
        assert mvd_sq_isotropic(0.0, 1.0, 5, 0.1) < 1e-13
        assert mmd_sq_isotropic(0.0, 1.0, 5, 0.1) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 20])
    def test_mmd_is_exactly_zero_when_distributions_match(self, d):
        # |q|^2 came from a product of eigenvalues and <P, q> from slogdet, so
        # 12 of these 48 points read between 1.6e-24 and 1.1e-16.
        for sigma in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0):
            assert mmd_sq_isotropic(0.0, 1.0, d, sigma) == 0.0

    def test_monotone_vanishing_along_a_path(self):
        rng = np.random.default_rng(92)
        d = 3
        m0 = rng.normal(size=d)
        delta = _random_spd(rng, d) * 0.1
        values = []
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
            q = GaussianSpec(eps * m0, np.eye(d) + eps * delta)
            values.append((mvd_sq_gaussian(q, 0.2), mmd_sq_gaussian(q, 0.2)))
        mvds, mmds = zip(*values)
        assert all(a > b for a, b in zip(mvds, mvds[1:]))
        assert all(a > b for a, b in zip(mmds, mmds[1:]))
        assert mvds[-1] < 0.1 * mvds[0] and mmds[-1] < 0.1 * mmds[0]

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="variance scale"):
            mvd_sq_isotropic(0.5, 0.0, 3, 0.1)
        with pytest.raises(ValueError, match="variance scale"):
            mmd_sq_isotropic(0.5, -1.0, 3, 0.1)

    @pytest.mark.parametrize("t, s, message", [
        (math.inf, 1.0, "mean must be finite"),
        (math.nan, 1.0, "mean must be finite"),
        (0.5, math.nan, "variance scale s must be > 0 and finite, got nan"),
        (0.5, math.inf, "variance scale s must be > 0 and finite, got inf"),
    ])
    def test_rejects_non_finite_parameters(self, t, s, message):
        for func in (mvd_sq_isotropic, mmd_sq_isotropic):
            with pytest.raises(ValueError, match=re.escape(message)):
                func(t, s, 3, 0.1)

    @pytest.mark.parametrize("sigma", [0, 0.0, -0.1, math.nan, math.inf, True])
    def test_rejects_a_bad_bandwidth(self, sigma):
        # The private inner products check nothing, so each public form must.
        message = re.escape(f"sigma must be a positive finite real, got {sigma!r}")
        q = GaussianSpec.isotropic(0.5, 1.0, 2)
        for func in (mvd_sq_gaussian, mmd_sq_gaussian):
            with pytest.raises(ValueError, match=message):
                func(q, sigma)
        for func in (mvd_sq_isotropic, mmd_sq_isotropic):
            with pytest.raises(ValueError, match=message):
                func(0.5, 1.0, 2, sigma)
            with pytest.raises(ValueError, match=message):
                func(0.5, 1.0, 2, sigma, 3.0)
        with pytest.raises(ValueError, match=message):
            mvd_mmd_curves([0.0, 1.0], [1.0], 2, sigma)
        with pytest.raises(ValueError, match=message):
            mvd_mmd_curves([], [], 2, sigma)

    @pytest.mark.parametrize("d", [0, -3, 2.5, 5.0, True, None])
    def test_rejects_a_bad_dimension(self, d):
        message = re.escape(f"d must be an integer >= 1, got {d!r}")
        for func in (mvd_sq_isotropic, mmd_sq_isotropic):
            with pytest.raises(ValueError, match=message):
                func(1.0, 1.0, d, 0.5)
        with pytest.raises(ValueError, match=message):
            mvd_mmd_curves([0.0, 1.0], [1.0], d, 0.5)
        with pytest.raises(ValueError, match=message):
            mvd_mmd_curves([], [], d, 0.5)


class TestLargeDimension:
    """|I + 4 sigma cov| overflows float64 once d log(1 + 4 sigma) > 709.8; its log does not."""

    @pytest.mark.parametrize("t, s, d, sigma", [(0.5, 1.0, 500, 1.0), (0.0, 1.5, 300, 2.0)])
    def test_mmd_matches_decimal_oracle(self, t, s, d, sigma):
        # The first read 0.0: |q|^2 came out as 0 after numpy's overflow warning.
        c = 300.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mmd_sq_isotropic(t, s, d, sigma, c)
        want = math.exp(c) * ref.isotropic_sq_by_decimal(t, s, d, sigma)[1]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("d", [700, 800, 900])
    @pytest.mark.parametrize("func, index", [(mvd_sq_isotropic, 0), (mmd_sq_isotropic, 1)], ids=["mvd", "mmd"])
    def test_scale_enters_each_term_before_exp(self, func, index, d):
        # Scaled only after exp, mvd read 0.0 at d = 700 and 800 (its C = 0
        # value is below float64's range) and mmd at d = 900 was 6e-10 off.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = func(0.5, 1.0, d, 1.0, 300.0)
        want = ref.isotropic_sq_by_decimal(0.5, 1.0, d, 1.0, 300.0)[index]
        assert want > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_mean_embedding_norm_stays_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_embedding_norm_sq(GaussianSpec.standard(500), 1.0) > 0.0


class TestNearTheNull:
    """Each squared discrepancy is a sum of O(1) terms of both signs, so its error is absolute."""

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("sigma", [0.09, 0.5, 2.0])
    def test_absolute_error_stays_at_round_off(self, d, sigma):
        # Worst seen: 6.95e-16 (mvd) and 2.63e-16 (mmd).  The smallest
        # non-zero mvd here is 1.4e-11, where that is 9.4e-6 relative.
        for t in (0.0, 1e-4, 1e-3, 1e-2):
            for s in (1.0, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-3):
                mvd, mmd = ref.isotropic_sq_by_decimal(t, s, d, sigma)
                assert abs(mvd_sq_isotropic(t, s, d, sigma) - mvd) <= 2e-15
                assert abs(mmd_sq_isotropic(t, s, d, sigma) - mmd) <= 2e-15


class TestPopulationNullMoments:
    """Sum lambda and sum lambda^2 of the mmd null law under N(0, I_d), by quadrature."""

    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_sixty_nodes_are_converged(self, sigma):
        # Fixes the node count: doubling it moves neither moment by 1e-11.
        # The tensor grid at d = 2 sums the same 1-D rule along each axis.
        coarse = ref.population_null_moments("mmd", 1, sigma, nodes=60)
        fine = ref.population_null_moments("mmd", 1, sigma, nodes=120)
        np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_mmd_matches_the_closed_forms(self, d, sigma):
        trace, squares = ref.population_null_moments("mmd", d, sigma, nodes=60)
        assert abs(trace - (1.0 - (1.0 + 4.0 * sigma) ** (-d / 2))) <= 1e-10
        assert abs(squares - cov_operator_norm_sq(GaussianSpec.standard(d), sigma)) <= 1e-10


class TestLogScaleFactor:
    def test_mmd_scales_as_exp_c(self):
        q = GaussianSpec.isotropic(0.5, 1.5, 3)
        base = mmd_sq_gaussian(q, 0.2)
        np.testing.assert_allclose(mmd_sq_gaussian(q, 0.2, c=1.1), math.exp(1.1) * base,
                                   rtol=1e-12)
        np.testing.assert_allclose(mmd_sq_isotropic(0.5, 1.5, 3, 0.2, c=1.1),
                                   math.exp(1.1) * base, rtol=1e-12)

    def test_mvd_scales_as_exp_2c(self):
        q = GaussianSpec.isotropic(0.5, 1.5, 3)
        base = mvd_sq_gaussian(q, 0.2)
        np.testing.assert_allclose(mvd_sq_gaussian(q, 0.2, c=1.1), math.exp(2.2) * base,
                                   rtol=1e-12)
        np.testing.assert_allclose(mvd_sq_isotropic(0.5, 1.5, 3, 0.2, c=1.1),
                                   math.exp(2.2) * base, rtol=1e-12)

    @pytest.mark.parametrize("func, args, c", [
        (mvd_sq_isotropic, (1.0, 1.0, 2, 0.5), 400.0),      # e^(2c) overflows
        (mmd_sq_isotropic, (1.0, 1.0, 2, 0.5), 800.0),      # e^c overflows
        (mmd_sq_isotropic, (1000.0, 1.0, 1, 1e-3), 709.5),  # e^c is finite, the product (~2 e^c) is not
    ])
    def test_overflow_names_log_scale(self, func, args, c):
        with pytest.raises(ValueError, match=re.escape(f"log_scale={c!r} is too large")):
            func(*args, c=c)

    def test_overflow_in_general_forms_and_curves(self):
        q = GaussianSpec.isotropic(1.0, 1.0, 2)
        with pytest.raises(ValueError, match="log_scale"):
            mvd_sq_gaussian(q, 0.5, c=400.0)
        with pytest.raises(ValueError, match="log_scale"):
            mmd_sq_gaussian(q, 0.5, c=800.0)
        with pytest.raises(ValueError, match="log_scale"):
            mvd_mmd_curves([0.0, 1.0], [1.0], 2, 0.5, c=800.0)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, True])
    def test_refuses_a_scale_that_is_not_a_finite_real(self, c):
        # c = -inf once returned 0.0, nan was blamed on overflow, and True ran as c = 1.
        q = GaussianSpec.isotropic(1.0, 1.0, 2)
        calls = [lambda: mvd_sq_isotropic(1.0, 1.0, 2, 0.5, c=c), lambda: mmd_sq_isotropic(1.0, 1.0, 2, 0.5, c=c),
                 lambda: mvd_sq_gaussian(q, 0.5, c=c), lambda: mmd_sq_gaussian(q, 0.5, c=c),
                 lambda: mvd_mmd_curves([0.0, 1.0], [1.0], 2, 0.5, c=c)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"log_scale must be finite and real, got {c!r}")):
                call()

    @pytest.mark.parametrize("c", [math.nan, math.inf, True])
    def test_an_empty_grid_refuses_a_bad_scale(self, c):
        # c was checked only per grid point, so an empty grid took any c.
        assert mvd_mmd_curves([], [1.0], 2, 0.5).shape == (0, 4)
        with pytest.raises(ValueError, match=re.escape(f"log_scale must be finite and real, got {c!r}")):
            mvd_mmd_curves([], [1.0], 2, 0.5, c=c)

    def test_largest_finite_scale_still_evaluates(self):
        value = mvd_sq_isotropic(1.0, 1.0, 2, 0.5, c=300.0)
        assert math.isfinite(value)
        np.testing.assert_allclose(value, math.exp(600.0) * mvd_sq_isotropic(1.0, 1.0, 2, 0.5),
                                   rtol=1e-12)


class TestCurves:
    def test_shape_and_order(self):
        out = mvd_mmd_curves([0.0, 1.0], [1.0, 2.0, 3.0], 4, 0.1)
        assert out.shape == (6, 4)
        # t varies slowest
        np.testing.assert_array_equal(out[:, 0], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(out[:, 1], [1, 2, 3, 1, 2, 3])

    def test_values_match_pointwise_evaluation(self):
        out = mvd_mmd_curves([0.5, 1.5], [0.8], 5, 0.15, c=0.3)
        for t, s, mmd_v, mvd_v in out:
            np.testing.assert_allclose(mmd_v, mmd_sq_isotropic(t, s, 5, 0.15, c=0.3), rtol=1e-14)
            np.testing.assert_allclose(mvd_v, mvd_sq_isotropic(t, s, 5, 0.15, c=0.3), rtol=1e-14)

    @pytest.mark.parametrize("d,c", [(1, 0.0), (5, 0.3)])
    def test_rows_equal_the_per_point_forms_bit_for_bit(self, d, c):
        # P and its norms are computed once per call; every row must keep the
        # bits of |P|^2 + |q|^2 - 2<P, q> built afresh at each grid point,
        # from inner products that carry the scale c inside each term.
        t_grid, s_grid, sigma = [0.0, 0.5, 1.5], [0.8, 1.0, 2.5], 0.15
        want = []
        for t in t_grid:
            for s in s_grid:
                p, q = GaussianSpec.standard(d), GaussianSpec.isotropic(t, s, d)
                mmd = max(_mean_inner(p, p, sigma, c) + _mean_inner(q, q, sigma, c)
                          - 2.0 * _mean_inner(p, q, sigma, c), 0.0)
                mvd = max(_cov_inner(p, p, sigma, c) + _cov_inner(q, q, sigma, c)
                          - 2.0 * _cov_inner(p, q, sigma, c), 0.0)
                want.append((t, s, mmd, mvd))
                if c == 0.0:  # the public inner products are the terms at c = 0
                    assert mmd == max(mean_embedding_norm_sq(p, sigma) + mean_embedding_norm_sq(q, sigma)
                                      - 2.0 * mean_embedding_inner(p, q, sigma), 0.0)
                    assert mvd == max(cov_operator_norm_sq(p, sigma) + cov_operator_norm_sq(q, sigma)
                                      - 2.0 * cov_operator_inner(p, q, sigma), 0.0)
        np.testing.assert_array_equal(mvd_mmd_curves(t_grid, s_grid, d, sigma, c=c), want)

    def test_scale_changes_the_ranking(self):
        # at unit scale the mean statistic dominates near the origin ...
        flat = mvd_mmd_curves([1.0], [1.0], 10, 0.1, c=0.0)[0]
        assert flat[2] > flat[3]
        # ... while a large common factor favours the covariance statistic
        lifted = mvd_mmd_curves([2.0], [1.0], 10, 0.1, c=4.0)[0]
        assert lifted[3] > lifted[2]
        far = mvd_mmd_curves([1.0, 2.0], [1.0], 10, 0.1, c=10.0)
        assert any(row[3] > row[2] for row in far)

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValueError, match="grids must be finite"):
            mvd_mmd_curves([np.inf], [1.0], 3, 0.1)
