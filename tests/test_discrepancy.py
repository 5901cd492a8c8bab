"""MVD and MMD statistics on Gram sets."""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
from mvdtest import (
    KernelSpec,
    SubsamplingPlan,
    build_gram_set,
    h_matrix,
    mmd_statistic,
    mvd_statistic,
    run_tests,
    statistic,
    variance_table,
)
from mvdtest.discrepancy import KINDS

# Hand-frozen values for small one-dimensional samples.
MVD_X = np.array([0.0, 0.4, 1.0, 1.5, 2.2]).reshape(-1, 1)
MVD_Y = np.array([0.1, 0.5, 0.9, 1.8, 2.0]).reshape(-1, 1)
MVD_VALUE = 0.0060258545925679086          # sigma = 0.6, C = 0
MVD_VALUE_SCALED = 0.01097982294153746     # sigma = 0.6, C = 0.3

MMD_X = np.array([0.0, 1.0, 2.0, 3.5]).reshape(-1, 1)
MMD_Y = np.array([0.2, 0.8, 2.5, 3.0]).reshape(-1, 1)
MMD_VALUE = 0.006587163772600935           # sigma = 0.25, C = 0

H_X = np.array([0.0, 0.7, 1.1, 2.0]).reshape(-1, 1)
H_FROZEN = np.array([
    [0.14690720236308683, -0.06427180232584842, 0.00099100610904636, -0.08362640614628476],
    [-0.06427180232584841, 0.05484480847438823, 0.03230300100810499, -0.02287600715664481],
    [0.00099100610904638, 0.032303001008105, 0.07495996557434155, -0.10825397269149294],
    [-0.08362640614628478, -0.02287600715664483, -0.10825397269149292, 0.21475638599442251],
])


def _gram_set_statistic(x, y, spec, kind):
    """statistic by the former GramSet path: centered blocks from build_gram_set, einsum norms.

    mmd is evaluated exactly in rationals from the raw blocks.  In floats the
    three sums of a nearly constant kernel carry errors of about 1e-16 * e^C,
    which at sigma = 1e-3 is over 1e-12 of the statistic itself.
    """
    g = build_gram_set(x, y, spec)
    n, m = g.n, g.m
    if kind == "mvd":
        a_xx = np.einsum("ij,ij->", g.kc_x, g.kc_x)
        a_xy = np.einsum("ij,ij->", g.kc_xy, g.kc_xy)
        a_yy = np.einsum("ij,ij->", g.kc_y, g.kc_y)
        raw = a_xx / n**2 - 2.0 * a_xy / (n * m) + a_yy / m**2
    else:
        def total(block):
            return sum(map(Fraction, block.ravel().tolist()))
        raw = total(g.k_x) / n**2 - 2 * total(g.k_xy) / (n * m) + total(g.k_y) / m**2
    return max(float(raw), 0.0)


def _random_instance(rng, max_n=10, max_d=3):
    n, m = rng.integers(2, max_n + 1, size=2)
    d = rng.integers(1, max_d + 1)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.1, 1.2)
    c = rng.uniform(-0.5, 0.5)
    return x, y, sigma, c


class TestMvdStatistic:
    def test_frozen_value(self):
        g = build_gram_set(MVD_X, MVD_Y, KernelSpec(sigma=0.6))
        np.testing.assert_allclose(mvd_statistic(g), MVD_VALUE, rtol=1e-13)

    def test_frozen_value_with_log_scale(self):
        g = build_gram_set(MVD_X, MVD_Y, KernelSpec(sigma=0.6, log_scale=0.3))
        np.testing.assert_allclose(mvd_statistic(g), MVD_VALUE_SCALED, rtol=1e-13)

    def test_matches_norm_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            x, y, sigma, c = _random_instance(rng)
            g = build_gram_set(x, y, KernelSpec(sigma=sigma, log_scale=c))
            want = ref.mvd_norm_expansion(x, y, sigma, c)
            np.testing.assert_allclose(mvd_statistic(g), want, rtol=1e-10, atol=1e-14)

    def test_scales_as_exp_2c(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(7, 2))
        lo = mvd_statistic(build_gram_set(x, y, KernelSpec(sigma=0.5)))
        hi = mvd_statistic(build_gram_set(x, y, KernelSpec(sigma=0.5, log_scale=0.9)))
        np.testing.assert_allclose(hi, math.exp(1.8) * lo, rtol=1e-12)

    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 2))
        g = build_gram_set(x, x.copy(), KernelSpec(sigma=0.4))
        assert mvd_statistic(g) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(9, 2))
        spec = KernelSpec(sigma=0.7)
        a = mvd_statistic(build_gram_set(x, y, spec))
        b = mvd_statistic(build_gram_set(y, x, spec))
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestMmdStatistic:
    def test_frozen_value(self):
        g = build_gram_set(MMD_X, MMD_Y, KernelSpec(sigma=0.25))
        np.testing.assert_allclose(mmd_statistic(g), MMD_VALUE, rtol=1e-13)

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            x, y, sigma, c = _random_instance(rng)
            g = build_gram_set(x, y, KernelSpec(sigma=sigma, log_scale=c))
            want = ref.mmd_pairwise(x, y, sigma, c)
            np.testing.assert_allclose(mmd_statistic(g), want, rtol=1e-10, atol=1e-14)

    def test_scales_as_exp_c(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(5, 2))
        lo = mmd_statistic(build_gram_set(x, y, KernelSpec(sigma=0.5)))
        hi = mmd_statistic(build_gram_set(x, y, KernelSpec(sigma=0.5, log_scale=0.9)))
        np.testing.assert_allclose(hi, math.exp(0.9) * lo, rtol=1e-12)

    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(7, 3))
        g = build_gram_set(x, x.copy(), KernelSpec(sigma=0.4))
        assert mmd_statistic(g) == 0.0


class TestStatisticDispatch:
    def test_kinds_tuple(self):
        assert KINDS == ("mvd", "mmd")

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(31)
        x, y, sigma, c = _random_instance(rng)
        g = build_gram_set(x, y, KernelSpec(sigma=sigma, log_scale=c))
        assert statistic(g, "mvd") == mvd_statistic(g)
        assert statistic(g, "mmd") == mmd_statistic(g)

    def test_leaves_the_gram_set_unchanged(self):
        # The core centers its blocks in place; statistic hands it copies.
        rng = np.random.default_rng(34)
        g = build_gram_set(rng.normal(size=(6, 2)), rng.normal(size=(5, 2)), KernelSpec(sigma=0.7))
        blocks = (g.k_x, g.k_y, g.k_xy, g.kc_x, g.kc_y, g.kc_xy)
        before = [b.copy() for b in blocks]
        for kind in KINDS:
            statistic(g, kind)
        for b, want in zip(blocks, before):
            np.testing.assert_array_equal(b, want)

    def test_unknown_kind(self):
        rng = np.random.default_rng(32)
        g = build_gram_set(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)), KernelSpec(sigma=1.0))
        with pytest.raises(ValueError, match="unknown statistic kind"):
            statistic(g, "energy")

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x, y, sigma, c = _random_instance(rng)
            g = build_gram_set(x, y, KernelSpec(sigma=sigma, log_scale=c))
            assert mvd_statistic(g) >= 0.0
            assert mmd_statistic(g) >= 0.0


class TestHMatrix:
    def test_frozen_value(self):
        g = build_gram_set(H_X, H_X, KernelSpec(sigma=0.8))
        np.testing.assert_allclose(h_matrix(g), H_FROZEN, rtol=1e-12, atol=1e-15)

    def test_matches_projection_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = rng.integers(3, 12)
            d = rng.integers(1, 4)
            x = rng.normal(size=(n, d))
            sigma = rng.uniform(0.2, 1.0)
            c = rng.uniform(-0.4, 0.4)
            g = build_gram_set(x, x, KernelSpec(sigma=sigma, log_scale=c))
            want = ref.h_by_projection(x, sigma, c)
            np.testing.assert_allclose(h_matrix(g), want, rtol=1e-11, atol=1e-14)

    def test_annihilates_ones(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(9, 2))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5)))
        assert np.abs(h @ np.ones(9)).max() < 1e-13

    def test_symmetric(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(8, 3))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5)))
        np.testing.assert_allclose(h, h.T, atol=1e-15)

    def test_built_from_left_sample_only(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(6, 2))
        spec = KernelSpec(sigma=0.5)
        a = h_matrix(build_gram_set(x, rng.normal(size=(5, 2)), spec))
        b = h_matrix(build_gram_set(x, rng.normal(size=(11, 2)), spec))
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_scales_as_exp_2c(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(7, 2))
        lo = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5)))
        hi = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5, log_scale=0.4)))
        np.testing.assert_allclose(hi, math.exp(0.8) * lo, rtol=1e-12, atol=1e-16)

    def test_leaves_the_gram_set_unchanged(self):
        # H's square is centered in place; the GramSet's blocks must not be.
        rng = np.random.default_rng(46)
        g = build_gram_set(rng.normal(size=(8, 2)), rng.normal(size=(6, 2)), KernelSpec(sigma=0.5))
        blocks = (g.k_x, g.k_y, g.k_xy, g.kc_x, g.kc_y, g.kc_xy)
        before = [b.tobytes() for b in blocks]
        h = h_matrix(g)
        assert [b.tobytes() for b in blocks] == before
        assert not any(np.shares_memory(h, b) for b in blocks)


class TestCoreMatchesGramSetPath:
    """Every caller of the statistic core agrees with the former GramSet formulas."""

    GRID = [(sigma, c) for sigma in (1e-3, 20.0) for c in (0.0, 0.5)]

    def _samples(self, seed=51, n=30, m=22, d=3):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.normal(size=(m, d)) * 1.2

    @pytest.mark.parametrize("sigma,c", GRID)
    def test_statistic(self, sigma, c):
        x, y = self._samples()
        spec = KernelSpec(sigma=sigma, log_scale=c)
        g = build_gram_set(x, y, spec)
        for kind in KINDS:
            np.testing.assert_allclose(statistic(g, kind), _gram_set_statistic(x, y, spec, kind), rtol=1e-12)

    @pytest.mark.parametrize("sigma,c", GRID)
    def test_run_tests(self, sigma, c):
        x, y = self._samples()
        spec = KernelSpec(sigma=sigma, log_scale=c)
        plan = SubsamplingPlan(n1=15, k=5, l=4, iterations=20, seed=2)
        for rep in run_tests(x, y, spec, plan=plan, draws=200, seed=3):
            np.testing.assert_allclose(rep.statistic, 52 * _gram_set_statistic(x, y, spec, rep.kind), rtol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_variance_table_exact_rows(self, sigma):
        reps, seed = 12, 4
        res = variance_table([(sigma, 3, 16, 11)], reps=reps, divisors=(4,), iterations=10, seed=seed)
        spec = KernelSpec(sigma=sigma)
        for kind in KINDS:
            scaled = np.empty(reps)
            for rep in range(reps):
                rng = np.random.default_rng([seed, 0, 0, rep])
                x = rng.standard_normal((16, 3))
                y = rng.standard_normal((11, 3))
                scaled[rep] = 27 * _gram_set_statistic(x, y, spec, kind)
            row, = [r for r in res.rows if r["kind"] == kind and r["estimate"] == "exact_variance"]
            np.testing.assert_allclose(row["value"], scaled.var(ddof=1), rtol=1e-12)
