"""Null-law weights, subsampling variance, moment correction, and the test runner."""

import dataclasses
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import reference as ref
import mvdtest.null
from mvdtest import (
    DistributionSpec,
    KernelSpec,
    NullApprox,
    SpectralWeights,
    SubsamplingPlan,
    TAU_TABLE,
    build_gram_set,
    critical_value,
    default_tau,
    fit_wprime,
    gram,
    h_matrix,
    run_test,
    run_tests,
    sample,
    sample_weighted_chisq,
    spectral_weights,
    subsample_variance,
    type1_power_table,
    variance_table,
)
from mvdtest.kernels import _rescale, gram_set_from_blocks
from mvdtest.discrepancy import _POWER, _block_terms, _combine_terms, _shift, statistic
from mvdtest.null import _law_moments

CHI2_1_Q95 = 3.841458820694124  # 0.95 quantile of chi-square with 1 degree of freedom


def _reference_subsample_variance(x, spec, kind, plan, m, seed):
    """subsample_variance as a loop of Gram sets rebuilt from the raw rows."""
    n = x.shape[0]
    vals = np.empty(plan.iterations)
    for i in range(plan.iterations):
        sub_rng = np.random.default_rng([seed, 0, i])
        one = sub_rng.choice(plan.n1, size=plan.k, replace=False)
        two = plan.n1 + sub_rng.choice(n - plan.n1, size=plan.l, replace=False)
        g = build_gram_set(x[one], x[two], spec)
        vals[i] = (plan.k + plan.l) * statistic(g, kind)
    scale = ((n + m) ** 4 / (n**2 * m**2)) * ((plan.k * plan.l) ** 2 / (plan.k + plan.l) ** 4)
    return vals.var(ddof=1) * scale


def _separate_block_v_subs(k_full, kinds, plan, m, seed):
    """_subsample_variance with each chunk's three blocks gathered into arrays of their own.

    The chunks, streams and reductions are those of the lanes (k_x, k_y,
    k_xy, shifted by the mean of k_xy's first row), so the values must be
    equal, not just close.
    """
    n, k, l = k_full.shape[0], plan.k, plan.l
    chunk = max(1, mvdtest.null._CHUNK_SCALARS // (k * k + l * l + k * l))
    raw = {kind: [] for kind in kinds}
    for start in range(0, plan.iterations, chunk):
        one, two = [], []
        for i in range(start, min(start + chunk, plan.iterations)):
            rng = np.random.default_rng([seed, 0, i])
            one.append(rng.choice(plan.n1, size=k, replace=False))
            two.append(plan.n1 + rng.choice(n - plan.n1, size=l, replace=False))
        one, two = np.array(one), np.array(two)
        k_x = k_full[one[:, :, None], one[:, None, :]]
        k_y = k_full[two[:, :, None], two[:, None, :]]
        k_xy = k_full[one[:, :, None], two[:, None, :]]
        shift = _shift(k_xy)
        terms = [_block_terms(kinds, b, shift) for b in (k_x, k_y, k_xy)]
        for kind, values in _combine_terms(kinds, *terms, k, l).items():
            raw[kind].extend(values)
    scale = ((n + m) ** 4 / (n**2 * m**2)) * ((k * l) ** 2 / (k + l) ** 4)
    return tuple(float(((k + l) * np.maximum(np.array(raw[kind]), 0.0)).var(ddof=1) * scale) for kind in kinds)


def _unit_weights(values):
    lam = np.asarray(values, dtype=float)
    return SpectralWeights(lambdas=lam, trace=float(lam.sum()), clipped_count=0, clipped_mass=0.0)


# Seeds the public draw functions refuse by name; numpy named no field for -1,
# raised a TypeError for 1.5 and "abc", and ran True as 1.
BAD_DRAW_SEEDS = [pytest.param(-1, "^seed must be a non-negative integer, got -1$", id="negative"),
                  pytest.param(True, "^seed must be an integer, got True$", id="bool"),
                  pytest.param(1.5, "^seed must be an integer, got 1.5$", id="float"),
                  pytest.param("abc", "^seed must be an integer, got 'abc'$", id="string")]


class TestDefaultTau:
    def test_table_values(self):
        assert TAU_TABLE["mvd"] == {0.25: 0.69348, 1 / 6: 0.34798, 0.125: 0.30928}
        assert TAU_TABLE["mmd"] == {0.25: 0.21990, 1 / 6: 0.10951, 0.125: 0.11643}

    @pytest.mark.parametrize("kind,fraction,want", [
        ("mvd", 0.25, 0.69348),
        ("mvd", 1 / 6, 0.34798),
        ("mvd", 0.125, 0.30928),
        ("mmd", 0.25, 0.21990),
        ("mmd", 1 / 6, 0.10951),
        ("mmd", 0.125, 0.11643),
    ])
    def test_exact_fractions(self, kind, fraction, want):
        assert default_tau(kind, fraction) == want

    def test_nearest_fraction_wins(self):
        # 0.2 is closer to 1/6 than to 1/4
        assert default_tau("mvd", 0.2) == 0.34798
        assert default_tau("mmd", 0.11) == 0.11643

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError, match="subsample fraction"):
            default_tau("mvd", 0.0)
        with pytest.raises(ValueError, match="subsample fraction"):
            default_tau("mvd", 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown statistic kind"):
            default_tau("energy", 0.25)

    def test_rejects_a_fraction_that_is_not_a_real(self):
        with pytest.raises(ValueError, match=re.escape("subsample fraction must be in (0, 1), got '0.1'")):
            default_tau("mvd", "0.1")


class TestSubsamplingPlan:
    def test_for_sample_defaults(self):
        plan = SubsamplingPlan.for_sample(200)
        assert (plan.n1, plan.k, plan.l) == (100, 25, 25)
        assert plan.iterations == 1000
        plan.validate(200)

    def test_for_sample_divisor(self):
        plan = SubsamplingPlan.for_sample(200, divisor=4)
        assert (plan.k, plan.l) == (50, 50)

    def test_for_sample_floors_at_two(self):
        plan = SubsamplingPlan.for_sample(10, divisor=8)
        assert (plan.k, plan.l) == (2, 2)

    @pytest.mark.parametrize("n,divisor,match", [
        (200, 0, "divisor 0: need an integer >= 2"),
        (200, -3, "divisor -3: need an integer >= 2"),
        (200, 8.5, "divisor 8.5: need an integer >= 2"),
        (200, True, "divisor True: need an integer >= 2"),
        (200.0, 8, "n must be an integer, got 200.0"),
    ], ids=["zero", "negative", "float", "bool", "float-n"])
    def test_for_sample_names_a_bad_argument(self, n, divisor, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            SubsamplingPlan.for_sample(n, divisor=divisor)

    def test_rejects_small_subsamples(self):
        with pytest.raises(ValueError, match="must be >= 2"):
            SubsamplingPlan(n1=10, k=1, l=5)

    def test_rejects_k_above_first_pool(self):
        with pytest.raises(ValueError, match="exceeds the first pool"):
            SubsamplingPlan(n1=4, k=5, l=2)

    def test_rejects_single_iteration(self):
        with pytest.raises(ValueError, match="at least 2 iterations"):
            SubsamplingPlan(n1=10, k=2, l=2, iterations=1)

    @pytest.mark.parametrize("name", ["n1", "k", "l", "iterations"])
    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4", None])
    def test_rejects_non_integer_fields(self, name, bad):
        fields = dict(n1=20, k=3, l=3, iterations=10)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            SubsamplingPlan(**{**fields, name: bad})

    def test_numpy_integers_are_stored_as_ints(self):
        # np.uint8 products would wrap (k * k = 400 > 255) if kept as numpy scalars.
        plan = SubsamplingPlan(n1=np.int64(20), k=np.uint8(20), l=np.int32(3), iterations=np.int16(10))
        assert plan == SubsamplingPlan(n1=20, k=20, l=3, iterations=10)
        assert all(type(getattr(plan, name)) is int for name in ("n1", "k", "l", "iterations"))

    def test_holds_no_seed(self):
        # The seed is the caller's: run_tests' or subsample_variance's.
        assert [f.name for f in dataclasses.fields(SubsamplingPlan)] == ["n1", "k", "l", "iterations"]
        with pytest.raises(TypeError):
            SubsamplingPlan(n1=10, k=3, l=3, iterations=10, seed=0)
        with pytest.raises(TypeError):
            SubsamplingPlan.for_sample(20, seed=0)

    def test_validate_needs_second_pool(self):
        plan = SubsamplingPlan(n1=10, k=2, l=2)
        with pytest.raises(ValueError, match="leaves no second pool"):
            plan.validate(10)

    def test_validate_l_against_second_pool(self):
        plan = SubsamplingPlan(n1=10, k=2, l=6)
        with pytest.raises(ValueError, match="exceeds the second pool"):
            plan.validate(12)


class TestSpectralWeights:
    def test_matches_characteristic_polynomial_roots(self):
        b = np.random.default_rng(7).standard_normal((5, 5))
        a = (b + b.T) / 2
        roots = sorted(ref.eigvals_by_charpoly(a), reverse=True)
        w = spectral_weights(a, 5)
        # one eigenvalue dropped as structural zero, negatives clamped
        want = [max(r, 0.0) / 5 for r in roots[:-1]]
        np.testing.assert_allclose(w.lambdas, want, rtol=1e-9, atol=1e-12)
        assert w.clipped_count == 2
        np.testing.assert_allclose(w.clipped_mass,
                                   (0.7813874234688941 + 0.9441246674784883) / 5, rtol=1e-9)

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(20, 2))
        g = build_gram_set(x, x, KernelSpec(sigma=0.5))
        w = spectral_weights(h_matrix(g.kc_x), 20)
        assert w.lambdas.shape == (19,)
        assert (w.lambdas >= 0).all()
        assert (np.diff(w.lambdas) <= 1e-15).all()

    def test_trace_identity(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(30, 3))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.4)).kc_x)
        w = spectral_weights(h, 30)
        np.testing.assert_allclose(w.trace + w.clipped_mass, np.trace(h) / 30, rtol=1e-10)

    def test_clip_accounting_is_tiny_for_psd_source(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=(25, 2))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.6)).kc_x)
        w = spectral_weights(h, 25)
        assert w.clipped_mass <= 1e-6 * np.trace(h) / 25

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="source must be 4 x 4"):
            spectral_weights(np.eye(3), 4)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        # 2.0 ran, and True was refused as "source must be True x True".
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            spectral_weights(np.eye(2), n)

    def test_rejects_asymmetric(self):
        a = np.eye(3)
        a[0, 1] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_weights(a, 3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_as_overflow(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="overflowed.*log_scale"):
            spectral_weights(a, 3)

    def test_leaves_its_argument_unchanged(self):
        x = np.random.default_rng(55).normal(size=(12, 2))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5)).kc_x)
        before = h.tobytes()
        w = spectral_weights(h, 12)
        assert h.tobytes() == before
        assert w.lambdas.shape == (11,)

    def test_banded_symmetry_check_matches_allclose(self, monkeypatch):
        # Bands of 3 rows, the last one short, against allclose's verdict on
        # asymmetries just inside, at and just outside the tolerance.
        n, atol = 11, 1e-8
        monkeypatch.setattr(mvdtest.null, "_CHUNK_SCALARS", 3 * n)
        b = np.random.default_rng(56).normal(size=(n, n))
        sym = (b + b.T) / 2
        for i, j in [(0, 1), (4, 2), (10, 9), (9, 10), (5, 5)]:
            for gap in (0.5 * atol, atol, 1.5 * atol, 1.0):
                a = sym.copy()
                a[i, j] += gap
                want = np.allclose(a, a.T, rtol=0.0, atol=atol)
                assert mvdtest.null._is_symmetric(a, atol) == want, (i, j, gap)


class TestSampleWeightedChisq:
    def test_deterministic(self):
        w = _unit_weights([0.5, 0.2])
        a = sample_weighted_chisq(w, 0.5, 1000, seed=5)
        b = sample_weighted_chisq(w, 0.5, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_block_size_does_not_change_the_stream(self, monkeypatch):
        w = _unit_weights([0.5, 0.2, 0.1])
        full = sample_weighted_chisq(w, 0.3, 997, seed=9)
        monkeypatch.setattr(mvdtest.null, "_BLOCK_SCALARS", 64)
        blocked = sample_weighted_chisq(w, 0.3, 997, seed=9)
        np.testing.assert_array_equal(full, blocked)

    @pytest.mark.parametrize("size", [199, 1999])
    def test_block_size_moves_draws_only_by_round_off(self, size, monkeypatch):
        # Every block size consumes the same normals in the same order, but
        # BLAS may sum zz @ lam in another order for another block shape, so
        # the draws agree to round-off, not bit for bit.
        w = _unit_weights(np.random.default_rng(size).uniform(size=size))
        generators = []
        real_default_rng = np.random.default_rng

        def recording_default_rng(seed):
            generators.append(real_default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
        monkeypatch.setattr(mvdtest.null, "_BLOCK_SCALARS", 997 * size)  # one block
        full = sample_weighted_chisq(w, 0.3, 997, seed=9)
        stream = real_default_rng(9)
        stream.standard_normal(997 * size)
        for block in (64, 7 * size, 1 << 16, 1 << 17):
            monkeypatch.setattr(mvdtest.null, "_BLOCK_SCALARS", block)
            blocked = sample_weighted_chisq(w, 0.3, 997, seed=9)
            np.testing.assert_allclose(blocked, full, rtol=1e-14, atol=0)
        assert len(generators) == 5
        for rng in generators:
            assert rng.bit_generator.state == stream.bit_generator.state

    def test_moments(self):
        w = _unit_weights([2.0, 1.0])
        draws = sample_weighted_chisq(w, 0.5, 200000, seed=31)
        mean_want = 3.0 / 0.25
        var_want = 2.0 * 5.0 / 0.25**2
        assert abs(draws.mean() - mean_want) < 3 * math.sqrt(var_want / draws.size)
        assert abs(draws.var(ddof=1) / var_want - 1) < 0.05

    def test_single_unit_weight_is_scaled_chi_square(self):
        draws = sample_weighted_chisq(_unit_weights([1.0]), 0.5, 10**6, seed=123)
        q = np.quantile(draws, 0.95)
        assert abs(q - 4 * CHI2_1_Q95) < 0.15

    @pytest.mark.parametrize("lams", [
        [[0.5, 0.2, 0.1], [0.05, 0.3, 0.0]],
        [[0.0, 0.0, 0.0], [0.5, 0.2, 0.1]],
        [[0.5, 0.2, 0.1], [0.0, 0.0, 0.0]],
    ])
    def test_shared_stream_matches_each_vector_alone(self, lams, monkeypatch):
        # An all-zero vector gets zeros and leaves the other vector's stream alone.
        monkeypatch.setattr(mvdtest.null, "_BLOCK_SCALARS", 64)  # several blocks
        lams = [np.array(lam) for lam in lams]
        out = mvdtest.null._weighted_chisq_draws(lams, 0.3, 997, [9, 1])
        for lam, draws in zip(lams, out):
            np.testing.assert_array_equal(draws, sample_weighted_chisq(_unit_weights(lam), 0.3, 997,
                                                                       seed=[9, 1]))

    @pytest.mark.parametrize("lam", [[0.0, 0.0], [-0.0, 0.0], []])
    def test_zero_weights_give_positive_zeros(self, lam):
        out = sample_weighted_chisq(_unit_weights(lam), 0.5, 17, seed=77)
        np.testing.assert_array_equal(out, np.zeros(17))
        assert not np.signbit(out).any()

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho must be in"):
            sample_weighted_chisq(_unit_weights([1.0]), 1.0, 10)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            sample_weighted_chisq(_unit_weights([1.0]), 0.5, 0)

    @pytest.mark.parametrize("seed,match", BAD_DRAW_SEEDS)
    def test_rejects_a_bad_seed(self, seed, match):
        with pytest.raises(ValueError, match=match):
            sample_weighted_chisq(_unit_weights([1.0]), 0.5, 10, seed=seed)


class TestSubsampleVariance:
    def test_matches_independent_reconstruction(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(24, 2))
        spec = KernelSpec(sigma=0.5, log_scale=0.1)
        plan = SubsamplingPlan(n1=12, k=4, l=5, iterations=40)
        for kind in ("mvd", "mmd"):
            np.testing.assert_allclose(subsample_variance(x, spec, kind, plan, 20, seed=17),
                                       _reference_subsample_variance(x, spec, kind, plan, 20, 17),
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind", ["mvd", "mmd"])
    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_chunks_match_reference_loop(self, kind, sigma):
        # k != l and large enough that the 100 iterations span several
        # chunks and end in a partial one.
        rng = np.random.default_rng(65)
        x = rng.normal(size=(130, 2))
        spec = KernelSpec(sigma=sigma, log_scale=0.5)
        plan = SubsamplingPlan(n1=70, k=60, l=45, iterations=100)
        chunk = mvdtest.null._CHUNK_SCALARS // (60 * 60 + 45 * 45 + 60 * 45)
        assert 2 <= plan.iterations // chunk and plan.iterations % chunk != 0
        np.testing.assert_allclose(subsample_variance(x, spec, kind, plan, 90, seed=23),
                                   _reference_subsample_variance(x, spec, kind, plan, 90, 23),
                                   rtol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_shared_kinds_match_reference_loop(self, sigma):
        # Both kinds from one set of gathered chunks, in either order: the
        # mmd sums must not see the in-place mvd centering.
        rng = np.random.default_rng(66)
        x = rng.normal(size=(130, 2))
        spec = KernelSpec(sigma=sigma, log_scale=0.5)
        plan = SubsamplingPlan(n1=70, k=60, l=45, iterations=100)
        want = {kind: _reference_subsample_variance(x, spec, kind, plan, 90, 29) for kind in ("mvd", "mmd")}
        # subsample_variance works at C = 0 and scales by e^(2pC).
        k_x = gram(x, x, KernelSpec(sigma=sigma))
        for kinds in (("mvd", "mmd"), ("mmd", "mvd")):
            got = mvdtest.null._subsample_variance(k_x, kinds, plan, 90, 29)
            for kind, value in zip(kinds, got):
                value = _rescale(value, 0.5, 2.0 * _POWER[kind])
                np.testing.assert_allclose(value, want[kind], rtol=1e-12)
                assert value == subsample_variance(x, spec, kind, plan, 90, seed=29)

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(20, 2))
        plan = SubsamplingPlan(n1=10, k=3, l=3, iterations=25)
        a = subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 20, seed=4)
        b = subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 20, seed=4)
        assert a == b
        assert subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 20, seed=5) != a

    def test_identical_rows_give_zero(self):
        x = np.ones((16, 2))
        plan = SubsamplingPlan(n1=8, k=3, l=3, iterations=10)
        assert subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 16, seed=1) == 0.0
        # A v_sub of 0 at C = 0 is no underflow: it stays 0 at any C.
        assert subsample_variance(x, KernelSpec(sigma=0.5, log_scale=-400.0), "mvd", plan, 16, seed=1) == 0.0

    def test_scaling_with_log_scale(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(28, 3))
        plan = SubsamplingPlan(n1=14, k=4, l=4, iterations=30)
        lo_mvd = subsample_variance(x, KernelSpec(sigma=0.4), "mvd", plan, 28, seed=8)
        hi_mvd = subsample_variance(x, KernelSpec(sigma=0.4, log_scale=0.5), "mvd", plan, 28, seed=8)
        np.testing.assert_allclose(hi_mvd, math.exp(2.0) * lo_mvd, rtol=1e-10)
        lo_mmd = subsample_variance(x, KernelSpec(sigma=0.4), "mmd", plan, 28, seed=8)
        hi_mmd = subsample_variance(x, KernelSpec(sigma=0.4, log_scale=0.5), "mmd", plan, 28, seed=8)
        np.testing.assert_allclose(hi_mmd, math.exp(1.0) * lo_mmd, rtol=1e-10)

    def test_rejects_infeasible_plan(self):
        x = np.zeros((10, 1))
        plan = SubsamplingPlan(n1=5, k=3, l=3)
        with pytest.raises(ValueError, match="at least 2 rows|exceeds"):
            subsample_variance(np.zeros((1, 1)), KernelSpec(sigma=1.0), "mvd", plan, 10)
        bad = SubsamplingPlan(n1=9, k=2, l=2)
        with pytest.raises(ValueError, match="exceeds the second pool|leaves no second pool"):
            subsample_variance(x, KernelSpec(sigma=1.0), "mvd", bad, 10)

    def test_rejects_small_companion(self):
        x = np.random.default_rng(64).normal(size=(12, 1))
        plan = SubsamplingPlan(n1=6, k=2, l=2, iterations=5)
        with pytest.raises(ValueError, match="companion sample size"):
            subsample_variance(x, KernelSpec(sigma=1.0), "mvd", plan, 1)

    @pytest.mark.parametrize("seed,match", [(-1, "^seed must be a non-negative integer, got -1$"),
                                            (np.int64(-5), "^seed must be a non-negative integer, got -5$"),
                                            (2.5, "^seed must be an integer, got 2.5$"),
                                            (True, "^seed must be an integer, got True$")],
                             ids=["negative", "numpy-negative", "float", "bool"])
    def test_rejects_a_bad_seed(self, seed, match):
        x = np.random.default_rng(64).normal(size=(12, 1))
        plan = SubsamplingPlan(n1=6, k=2, l=2, iterations=5)
        with pytest.raises(ValueError, match=match):
            subsample_variance(x, KernelSpec(sigma=1.0), "mvd", plan, 10, seed=seed)

    def test_underflow_to_zero_names_log_scale(self):
        # n = m = 80, d = 3, sigma = 3^(-3/4), the default plan: e^(4C) at
        # C = -300 underflows float64, so the positive mvd v_sub would read 0;
        # e^(2C) keeps the mmd one.
        x = np.random.default_rng(0).standard_normal((80, 3))
        plan = SubsamplingPlan.for_sample(80)
        sigma = 3.0 ** -0.75
        assert subsample_variance(x, KernelSpec(sigma=sigma), "mvd", plan, 80) > 0.0
        with pytest.raises(ValueError, match=r"^log_scale=-300\.0 is too small: the scaled mvd v_sub "
                                             r"underflowed float64 to 0"):
            subsample_variance(x, KernelSpec(sigma=sigma, log_scale=-300.0), "mvd", plan, 80)
        assert subsample_variance(x, KernelSpec(sigma=sigma, log_scale=-300.0), "mmd", plan, 80) > 0.0


class TestRunLanes:
    """The one seeded lane runner behind subsampling and the exact replications."""

    PREFIX = (41, 0)

    @pytest.mark.parametrize("workers,chunk,lanes", [(1, 7, 1), (2, 7, 2), (64, 7, 5), (8, 1, 8)])
    def test_each_item_draws_from_its_own_stream(self, workers, chunk, lanes):
        out = np.empty(30)
        threads = []

        def lane(stream):
            threads.append(threading.get_ident())

            def work(start, stop):
                for i in range(start, stop):
                    out[i] = stream(i).random()

            return work

        mvdtest.null._run_lanes(self.PREFIX, 30, chunk, workers, lane)
        assert out.tolist() == [np.random.default_rng([*self.PREFIX, i]).random() for i in range(30)]
        # lane is called once per lane, one lane in the calling thread.
        assert len(threads) == lanes and threading.get_ident() in threads

    def test_a_failure_on_one_lane_stops_after_its_chunk(self):
        failure = RuntimeError("chunk failed")
        started = []

        def lane(stream):
            def work(start, stop):
                started.append(start)
                if start == 9:
                    raise failure

            return work

        with pytest.raises(RuntimeError) as info:
            mvdtest.null._run_lanes(self.PREFIX, 30, 3, 1, lane)
        assert info.value is failure
        assert started == [0, 3, 6, 9]

    def test_a_failure_on_two_lanes_stops_the_other_lane(self):
        failure = RuntimeError("chunk failed")
        started = []

        def lane(stream):
            def work(start, stop):
                started.append(start)
                if start == 2:
                    raise failure
                time.sleep(1e-3)  # releases the GIL, so the failing lane drains the queue at once

            return work

        with pytest.raises(RuntimeError) as info:
            mvdtest.null._run_lanes(self.PREFIX, 200, 1, 2, lane)
        assert info.value is failure
        assert 2 in started and len(started) < 50


class TestSubsampleLanes:
    """Above a size gate the chunks run on one lane per CPU; results must not depend on it."""

    # 27100 scalars per iteration, above the gate: chunks of 9 iterations, the last one short.
    ABOVE = SubsamplingPlan(n1=200, k=100, l=90, iterations=23)
    # 8325 scalars per iteration, below the gate: four chunks on one lane.
    BELOW = SubsamplingPlan(n1=200, k=60, l=45, iterations=100)
    # 135475 scalars per iteration: one iteration fills a chunk, as at n = 2000
    # with the default plan.  Its pools need 440 rows.
    ONE_PER_CHUNK = SubsamplingPlan(n1=220, k=215, l=210, iterations=5)
    SEED = 31

    @staticmethod
    def _k_x(sigma=0.5, rows=400):
        x = np.random.default_rng(67).normal(size=(rows, 2))
        return gram(x, x, KernelSpec(sigma=sigma, log_scale=0.5))

    def test_plans_straddle_the_gate(self):
        def scalars(p):
            return p.k * p.k + p.l * p.l + p.k * p.l
        assert scalars(self.BELOW) < mvdtest.null._LANE_SCALARS <= scalars(self.ABOVE)
        chunk = mvdtest.null._CHUNK_SCALARS // scalars(self.ABOVE)
        assert 2 <= self.ABOVE.iterations // chunk and self.ABOVE.iterations % chunk != 0
        assert mvdtest.null._CHUNK_SCALARS // scalars(self.ONE_PER_CHUNK) == 1

    @pytest.mark.parametrize("plan", [ABOVE, BELOW], ids=["above", "below"])
    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_results_do_not_depend_on_worker_count(self, plan, sigma, monkeypatch):
        k_x = self._k_x(sigma)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kinds in (("mvd", "mmd"), ("mmd", "mvd"), ("mvd",), ("mmd",)):
                got = []
                for workers in (1, 2, 64):
                    monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: workers)
                    got.append(mvdtest.null._subsample_variance(k_x, kinds, plan, 350, self.SEED))
                assert got[1] == got[0] and got[2] == got[0]
        finally:
            sys.setswitchinterval(interval)

    def test_lanes_match_reference_loop(self, monkeypatch):
        x = np.random.default_rng(68).normal(size=(400, 2))
        spec = KernelSpec(sigma=0.7)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: 2)
        for kind in ("mvd", "mmd"):
            np.testing.assert_allclose(subsample_variance(x, spec, kind, self.ABOVE, 350, seed=self.SEED),
                                       _reference_subsample_variance(x, spec, kind, self.ABOVE, 350, self.SEED),
                                       rtol=1e-12)

    @pytest.mark.parametrize("plan,rows", [(ABOVE, 400), (BELOW, 400), (ONE_PER_CHUNK, 440)],
                             ids=["above", "below", "one-per-chunk"])
    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lanes_equal_a_loop_over_separate_blocks(self, plan, rows, sigma, workers, monkeypatch):
        # A lane's one buffer takes a chunk's three blocks in turn, each
        # gathered over its own indices; that must move no bit against three
        # arrays of their own, on any lane count.
        k_x = self._k_x(sigma, rows)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: workers)
        for kinds in (("mvd", "mmd"), ("mmd", "mvd")):
            want = _separate_block_v_subs(k_x, kinds, plan, 350, self.SEED)
            assert mvdtest.null._subsample_variance(k_x, kinds, plan, 350, self.SEED) == want

    def test_each_lane_holds_one_buffer(self, monkeypatch):
        # n = 600 gives the default k = l = 75, above the gate: chunks of 15
        # iterations, so 60 iterations keep four lanes busy.  Above the
        # caller's Gram matrix, the traced peak must stay under each lane's
        # one buffer of 15 * 75^2 scalars plus a fixed slack for the index
        # draws, the block terms and the stream states.  A separate index
        # buffer, or a copy inside take, would break it.  Each chunk waits for
        # the other three before it gathers, so all four lanes hold their
        # buffers at once however the threads are scheduled.
        x = np.random.default_rng(71).normal(size=(600, 2))
        k_x = gram(x, x, KernelSpec(sigma=0.5))
        plan = SubsamplingPlan.for_sample(600, iterations=60)
        most = mvdtest.null._CHUNK_SCALARS // (3 * plan.k**2)
        assert (plan.k, most) == (75, 15) and plan.iterations // most == 4
        buffer = 8 * most * plan.k**2
        all_lanes = threading.Barrier(4, timeout=60)
        real_raw = mvdtest.null._raw_statistics

        def raw_once_all_lanes_hold_buffers(*args):
            all_lanes.wait()
            return real_raw(*args)

        monkeypatch.setattr(mvdtest.null, "_raw_statistics", raw_once_all_lanes_hold_buffers)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: 4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), plan, 600, 5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4 * buffer + (1 << 19)

    def test_only_plans_above_the_gate_start_a_pool(self, monkeypatch):
        pools = []
        lanes = set()
        real_raw = mvdtest.null._raw_statistics

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        def recording_raw(*args):
            lanes.add(threading.get_ident())
            return real_raw(*args)

        monkeypatch.setattr(mvdtest.null, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mvdtest.null, "_raw_statistics", recording_raw)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: 64)
        k_x = self._k_x()
        mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), self.BELOW, 350, self.SEED)
        assert pools == [] and lanes == {threading.get_ident()}
        mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), self.ABOVE, 350, self.SEED)
        assert pools == [2]  # three chunks: the caller's lane and two pool lanes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_in_a_chunk_reaches_the_caller(self, workers, monkeypatch):
        failure = RuntimeError("statistic failed")
        calls = itertools.count(1)
        real_raw = mvdtest.null._raw_statistics

        def failing_raw(*args):
            if next(calls) == 2:
                raise failure
            return real_raw(*args)

        monkeypatch.setattr(mvdtest.null, "_raw_statistics", failing_raw)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: workers)
        with pytest.raises(RuntimeError) as info:
            mvdtest.null._subsample_variance(self._k_x(), ("mvd", "mmd"), self.ABOVE, 350, self.SEED)
        assert info.value is failure

    def test_run_tests_reports_do_not_depend_on_worker_count(self, monkeypatch):
        # n = 600 gives the default k = l = 75, above the gate.
        rng = np.random.default_rng(69)
        x, y = rng.normal(size=(600, 2)), rng.normal(size=(450, 2))
        plan = SubsamplingPlan.for_sample(600, iterations=40)
        assert 3 * plan.k**2 >= mvdtest.null._LANE_SCALARS
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: workers)
            reports = run_tests(x, y, KernelSpec(sigma=0.5), plan=plan, draws=400, seed=3)
            got.append([dataclasses.asdict(rep) for rep in reports])
        assert got[1] == got[0]


class TestStreamStates:
    """Every subsample stream is seeded in one vectorized pass; it must be default_rng's stream."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130]
    INDICES = [0, 1, 999, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("middle", [(0,), (3, 0)], ids=["seed-0-i", "seed-3-0-i"])
    def test_states_match_default_rng(self, seed, middle):
        prefix = (seed, *middle)
        got = [mvdtest.null._pcg64_state(words) for words in mvdtest.null._pcg64_states(prefix, self.INDICES)]
        assert got == [np.random.default_rng([*prefix, i]).bit_generator.state for i in self.INDICES]

    @pytest.mark.parametrize("seed", [7, 2**70 + 3])
    def test_choice_outputs_match_default_rng(self, seed):
        states = mvdtest.null._stream_states((seed, 0), 1000)
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)
        for i, words in enumerate(states):
            bits.state = mvdtest.null._pcg64_state(words)
            want = np.random.default_rng([seed, 0, i])
            assert np.array_equal(rng.choice(100, size=25, replace=False),
                                  want.choice(100, size=25, replace=False))
            assert np.array_equal(rng.choice(100, size=25, replace=False),
                                  want.choice(100, size=25, replace=False))

    def test_subsample_variance_matches_reference_at_a_wide_seed(self, monkeypatch):
        x = np.random.default_rng(70).normal(size=(40, 3))
        plan = SubsamplingPlan(n1=20, k=6, l=5, iterations=200)
        seed = 2**70 + 3
        k_x = gram(x, x, KernelSpec(sigma=0.7))
        got = mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), plan, 30, seed)
        for kind, value in zip(("mvd", "mmd"), got):
            # The reference sums each statistic in another order, so it agrees to
            # round-off; a wrong stream would move v_sub by far more.
            np.testing.assert_allclose(value, _reference_subsample_variance(
                x, KernelSpec(sigma=0.7), kind, plan, 30, seed), rtol=1e-12)

        def default_rng_states(prefix, count):
            return np.array([np.random.SeedSequence([*prefix, i]).generate_state(4, np.uint64)
                             for i in range(count)])

        monkeypatch.setattr(mvdtest.null, "_stream_states", default_rng_states)
        assert mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), plan, 30, seed) == got

    def test_self_check_refuses_a_wrong_state(self, monkeypatch):
        real = mvdtest.null._pcg64_states

        def off_by_one(prefix, indices):
            words = real(prefix, indices)
            words[0, 1] ^= np.uint64(1)  # the low word of stream 0's state
            return words

        monkeypatch.setattr(mvdtest.null, "_pcg64_states", off_by_one)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} seeds default_rng"):
            mvdtest.null._subsample_variance(TestSubsampleLanes._k_x(), ("mvd",),
                                             TestSubsampleLanes.BELOW, 350, TestSubsampleLanes.SEED)

    def test_rejects_indices_beyond_one_word(self):
        with pytest.raises(ValueError, match="below 2\\^32"):
            mvdtest.null._pcg64_states((0, 0), [2**32])


class TestFitWprime:
    def test_hand_case(self):
        # one unit weight, rho = 1/2: mu_S = 4, V_S = 32; v_sub = 8, tau = 0
        # gives xi = sqrt(8/32) = 1/2 and c = (1 - 1/2) * 4 = 2.
        na = fit_wprime(_unit_weights([1.0]), 0.5, 8.0, 0.0)
        assert na.xi == 0.5
        assert na.c == 2.0

    def test_moment_properties(self):
        # W' = xi * S + c keeps S's mean and takes the variance (1 + tau) * v_sub.
        na = fit_wprime(_unit_weights([0.7, 0.2]), 0.4, 5.0, 0.3)
        mu_s, v_s = _law_moments(na.weights, na.rho)
        np.testing.assert_allclose(mu_s, 0.9 / (0.4 * 0.6), rtol=1e-12)
        np.testing.assert_allclose(v_s, 2 * (0.49 + 0.04) / (0.4 * 0.6) ** 2, rtol=1e-12)
        np.testing.assert_allclose(na.xi * mu_s + na.c, mu_s, rtol=1e-12)
        np.testing.assert_allclose(na.xi**2 * v_s, (1 + 0.3) * 5.0, rtol=1e-12)

    def test_law_holds_no_draw_count(self):
        # critical_value takes the draw count; the fitted law is only the law.
        assert [f.name for f in dataclasses.fields(NullApprox)] == ["weights", "rho", "tau", "v_sub", "xi", "c"]
        with pytest.raises(TypeError):
            fit_wprime(_unit_weights([1.0]), 0.5, 8.0, 0.0, draws_j=100)

    def test_mean_is_preserved_when_variances_match(self):
        w = _unit_weights([1.0])
        na = fit_wprime(w, 0.5, 32.0, 0.0)
        assert na.xi == 1.0
        assert na.c == 0.0

    def test_degenerate_spectrum_with_zero_variance(self):
        na = fit_wprime(_unit_weights([0.0]), 0.5, 0.0, 0.2)
        assert na.xi == 1.0
        assert na.c == 0.0

    def test_degenerate_spectrum_with_positive_variance(self):
        with pytest.raises(ValueError, match="degenerate spectrum"):
            fit_wprime(_unit_weights([0.0]), 0.5, 1.0, 0.2)

    def test_rejects_negative_v_sub(self):
        with pytest.raises(ValueError, match="v_sub must be >= 0"):
            fit_wprime(_unit_weights([1.0]), 0.5, -1.0, 0.0)

    # 10**400 used to escape as math.isfinite's OverflowError, "1.0" as its TypeError.
    @pytest.mark.parametrize("v_sub", [math.nan, math.inf, -math.inf, 10**400, "1.0", None, True])
    def test_rejects_non_finite_v_sub(self, v_sub):
        with pytest.raises(ValueError, match=re.escape(f"v_sub must be >= 0 and finite, got {v_sub!r}")):
            fit_wprime(_unit_weights([1.0]), 0.5, v_sub, 0.0)

    @pytest.mark.parametrize("rho", ["0.5", None, np.True_, 0.0, 1.0])
    def test_rejects_a_rho_that_is_not_a_share(self, rho):
        with pytest.raises(ValueError, match=re.escape(f"rho must be in (0, 1), got {rho!r}")):
            fit_wprime(_unit_weights([1.0]), rho, 1.0, 0.0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            fit_wprime(_unit_weights([1.0]), 0.5, 1.0, -0.1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 10**400])
    def test_rejects_non_finite_tau(self, tau):
        # 10**400 used to escape as math.isfinite's OverflowError.
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            fit_wprime(_unit_weights([1.0]), 0.5, 1.0, tau)

    @pytest.mark.parametrize("tau", ["0.3", True, np.True_, None])
    def test_rejects_a_tau_that_is_not_a_real(self, tau):
        # float() would run "0.3" as 0.3 and True as 1.0.
        with pytest.raises(ValueError, match=re.escape(f"tau must be a real number, got {tau!r}")):
            fit_wprime(_unit_weights([1.0]), 0.5, 1.0, tau)


class TestCriticalValue:
    def test_single_weight_matches_chi_square_quantile(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        cv = critical_value(na, 0.05, seed=123, draws=10**6)
        assert abs(cv - 4 * CHI2_1_Q95) < 0.15

    def test_rank_on_small_sample(self):
        # J = 20constructed draws: quantile rank ceil(20 * 0.95) = 19 -> 19th
        # smallest value, i.e. the second largest.
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        draws = sample_weighted_chisq(na.weights, na.rho, 20, seed=3)
        want = np.sort(na.xi * draws + na.c)[18]
        np.testing.assert_allclose(critical_value(na, 0.05, seed=3, draws=20), want, rtol=1e-15)

    def test_default_draw_count(self):
        na = fit_wprime(_unit_weights([1.0, 0.3]), 0.5, 40.0, 0.1)
        draws = sample_weighted_chisq(na.weights, na.rho, 10000, seed=4)
        assert critical_value(na, 0.05, seed=4) == np.sort(na.xi * draws + na.c)[9499]

    def test_rejects_too_few_draws(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        with pytest.raises(ValueError, match="^draws=10 is too small for alpha=0.05$"):
            critical_value(na, 0.05, draws=10)

    def test_rejects_bad_alpha(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        with pytest.raises(ValueError, match="alpha must be in"):
            critical_value(na, 0.0)

    @pytest.mark.parametrize("alpha", ["0.05", None])
    def test_rejects_an_alpha_that_is_not_a_real(self, alpha):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(f"alpha must be in (0, 1), got {alpha!r}")):
            critical_value(na, alpha)

    @pytest.mark.parametrize("seed,match", BAD_DRAW_SEEDS + [
        pytest.param([7, -1], "^seed must be a non-negative integer, got -1$", id="negative-part")])
    def test_rejects_a_bad_seed(self, seed, match):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        with pytest.raises(ValueError, match=match):
            critical_value(na, 0.05, seed=seed)

    @pytest.mark.parametrize("rho", [0.0, 1.0, math.nan])
    def test_rejects_rho_outside_unit_interval(self, rho):
        na = dataclasses.replace(fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0), rho=rho)
        with pytest.raises(ValueError, match=re.escape(f"rho must be in (0, 1), got {rho!r}")):
            critical_value(na, 0.05)

    def test_smaller_alpha_larger_critical_value(self):
        na = fit_wprime(_unit_weights([1.0, 0.3]), 0.5, 40.0, 0.1)
        assert critical_value(na, 0.01, seed=5, draws=10**5) > critical_value(na, 0.10, seed=5, draws=10**5)


class TestRunTest:
    def _samples(self, seed=91, n=40, m=36, d=2, shift=0.0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), shift + rng.normal(size=(m, d))

    def test_report_invariants(self):
        x, y = self._samples()
        for kind in ("mvd", "mmd"):
            rep = run_test(x, y, KernelSpec(sigma=0.5), kind=kind, draws=2000, seed=2)
            assert rep.kind == kind
            assert (rep.n, rep.m) == (40, 36)
            assert rep.reject == (rep.statistic > rep.critical_value)
            assert 0.0 <= rep.p_value <= 1.0
            assert rep.statistic >= 0.0
            assert rep.v_sub >= 0.0
            assert rep.xi > 0.0
            assert rep.alpha == 0.05
            assert rep.draws == 2000

    def test_deterministic(self):
        x, y = self._samples()
        a = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=1500, seed=7)
        b = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=1500, seed=7)
        assert a == b

    def test_seed_changes_critical_value(self):
        x, y = self._samples()
        a = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=1500, seed=7)
        b = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=1500, seed=8)
        assert a.statistic == b.statistic
        assert a.critical_value != b.critical_value

    def test_default_plan_and_tau(self):
        x, y = self._samples(n=48, m=48)
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=2000, seed=3)
        assert rep.plan == SubsamplingPlan.for_sample(48)
        # k / n = 6 / 48 = 1/8 exactly
        assert rep.tau == TAU_TABLE["mvd"][0.125]

    def test_tau_override(self):
        x, y = self._samples()
        base = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", tau=0.0, draws=2000, seed=3)
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", tau=0.5, draws=2000, seed=3)
        assert rep.tau == 0.5
        assert rep.v_sub == base.v_sub
        # target variance (1 + tau) * v_sub scales xi by sqrt(1.5)
        np.testing.assert_allclose(rep.xi, math.sqrt(1.5) * base.xi, rtol=1e-12)

    def test_statistic_is_scaled_by_total_size(self):
        x, y = self._samples()
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=2000, seed=3)
        g = build_gram_set(x, y, KernelSpec(sigma=0.5))
        np.testing.assert_allclose(rep.statistic, (40 + 36) * statistic(g, "mvd"), rtol=1e-12)

    def test_identical_samples_never_reject(self):
        rng = np.random.default_rng(95)
        x = rng.normal(size=(30, 2))
        rep = run_test(x, x.copy(), KernelSpec(sigma=0.5), kind="mvd", draws=2000, seed=11)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert not rep.reject

    def test_distant_samples_reject(self):
        x, y = self._samples(shift=3.0)
        for kind in ("mvd", "mmd"):
            rep = run_test(x, y, KernelSpec(sigma=0.5), kind=kind, draws=2000, seed=13)
            assert rep.reject
            assert rep.p_value < 0.05

    def test_p_value_and_critical_value_share_draws(self):
        x, y = self._samples()
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", alpha=0.05, draws=2000, seed=21)
        # recompute the corrected draws exactly as the runner does
        w = spectral_weights(h_matrix(build_gram_set(x, y, KernelSpec(sigma=0.5)).kc_x), 40)
        na = fit_wprime(w, 40 / 76, rep.v_sub, rep.tau)
        s = sample_weighted_chisq(na.weights, na.rho, 2000, seed=[21, 1])
        wprime = na.xi * s + na.c
        np.testing.assert_allclose(rep.p_value, np.mean(wprime >= rep.statistic), rtol=1e-15)
        np.testing.assert_allclose(rep.critical_value, np.sort(wprime)[
            math.ceil(2000 * 0.95) - 1], rtol=1e-15)
        np.testing.assert_allclose(rep.critical_value_uncorrected, np.sort(s)[
            math.ceil(2000 * 0.95) - 1], rtol=1e-15)

    @pytest.mark.parametrize("sigma,log_scale", [(0.5, 0.0), (1e-3, 0.0), (1e-3, 0.7), (20.0, 0.0),
                                                 (20.0, 0.7)])
    def test_lower_level_pieces_reproduce_the_report(self, sigma, log_scale):
        # run_tests streams the Gram blocks and scales the spectra's sources
        # in place; the public pieces, composed at C = 0 and their magnitudes
        # scaled to log_scale, must give the same bits.  The one seed of the
        # test reaches each piece as the test uses it: subsample_variance
        # takes it as is, and the null law is drawn from the stream (seed, 1),
        # not from seed, with the test's draw count.
        x, y = self._samples()
        spec = KernelSpec(sigma=sigma, log_scale=log_scale)
        reports = run_tests(x, y, spec, kinds=("mvd", "mmd"), draws=2000, seed=21)
        unit = KernelSpec(sigma=sigma)
        g = build_gram_set(x, y, unit)
        plan = SubsamplingPlan.for_sample(g.n, divisor=8)
        rho = g.n / (g.n + g.m)
        for rep in reports:
            kind = rep.kind
            power = _POWER[kind]
            w = spectral_weights(h_matrix(g.kc_x) if kind == "mvd" else g.kc_x, g.n)
            v = subsample_variance(x, unit, kind, plan, g.m, seed=21)
            law = fit_wprime(w, rho, v, tau=default_tau(kind, plan.k / g.n))
            stat = (g.n + g.m) * statistic(g, kind)
            s = sample_weighted_chisq(w, rho, 2000, seed=[21, 1])
            assert _rescale(stat, log_scale, power) == rep.statistic
            assert _rescale(critical_value(law, 0.05, seed=[21, 1], draws=2000), log_scale,
                            power) == rep.critical_value
            assert _rescale(critical_value(dataclasses.replace(law, xi=1.0, c=0.0), 0.05, seed=[21, 1],
                                           draws=2000), log_scale, power) == rep.critical_value_uncorrected
            assert float(np.mean(law.xi * s + law.c >= stat)) == rep.p_value
            assert (law.xi, law.tau) == (rep.xi, rep.tau)
            assert _rescale(law.c, log_scale, power) == rep.c
            assert _rescale(v, log_scale, 2.0 * power) == rep.v_sub
            assert rep.v_sub == subsample_variance(x, spec, kind, plan, g.m, seed=21)
            assert _rescale(w.trace, log_scale, power) == rep.weights_trace
            assert _rescale(w.clipped_mass, log_scale, power) == rep.clipped_mass
            assert w.clipped_count == rep.clipped_count
            assert _rescale(critical_value(law, 0.05, seed=21, draws=2000), log_scale, power) != rep.critical_value
            assert subsample_variance(x, unit, kind, plan, g.m, seed=22) != v

    def test_uncorrected_critical_value_is_xi_free(self):
        x, y = self._samples()
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=2000, seed=5)
        if rep.xi != 1.0:
            assert rep.critical_value != rep.critical_value_uncorrected

    def test_rejects_too_few_draws_for_alpha(self):
        x, y = self._samples()
        with pytest.raises(ValueError, match="too small for alpha"):
            run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", alpha=0.01, draws=50)

    def test_rejects_bad_alpha(self):
        x, y = self._samples()
        with pytest.raises(ValueError, match="alpha must be in"):
            run_test(x, y, KernelSpec(sigma=0.5), alpha=1.5)

    @pytest.mark.parametrize("alpha", ["0.05", None])
    def test_rejects_an_alpha_that_is_not_a_real(self, alpha):
        x, y = self._samples()
        with pytest.raises(ValueError, match=re.escape(f"alpha must be in (0, 1), got {alpha!r}")):
            run_tests(x, y, KernelSpec(sigma=0.5), alpha=alpha, draws=200)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            run_test(np.zeros((10, 2)), np.zeros((10, 3)), KernelSpec(sigma=1.0))

    @pytest.mark.parametrize("kind,log_scale", [("mvd", 300.0), ("mvd", 400.0), ("mmd", 800.0)])
    def test_kernel_scale_overflow_fails_loudly(self, kind, log_scale):
        # mvd at C=300 overflows only v_sub's factor e^(4C); the other two
        # overflow the factor e^(pC) of every reported magnitude.
        x, y = self._samples(seed=96, n=100, m=100, d=3)
        with pytest.raises(ValueError, match="overflowed.*log_scale"):
            run_test(x, y, KernelSpec(sigma=0.3, log_scale=log_scale), kind=kind,
                     draws=2000, seed=1)

    def test_nearly_constant_kernel_gives_finite_reports(self):
        # At sigma = 1e-9 the Gram entries are 1 - O(1e-8), so H and K~_X are
        # round-off-sized and not symmetric to the public check's tolerance.
        x, y = self._samples(seed=5, n=100, m=100, d=3)
        for rep in run_tests(x, y, KernelSpec(sigma=1e-9), draws=2000, seed=1):
            for f in dataclasses.fields(rep):
                value = getattr(rep, f.name)
                if isinstance(value, float):
                    assert math.isfinite(value), f.name
            assert 0.0 <= rep.p_value <= 1.0
            assert rep.reject == (rep.statistic > rep.critical_value)

    def test_rejects_negative_seed(self):
        x, y = self._samples()
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
            run_tests(x, y, KernelSpec(sigma=0.5), draws=200, seed=-3)

    @pytest.mark.parametrize("seed", [2.7, 2.0, True, "2"])
    def test_rejects_non_integer_seed(self, seed):
        # int() would silently run 2.7 as seed 2.
        x, y = self._samples()
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            run_tests(x, y, KernelSpec(sigma=0.5), draws=200, seed=seed)

    def test_default_plan_needs_four_rows(self):
        x, y = self._samples(n=3, m=10)
        with pytest.raises(ValueError, match="x needs at least 4 rows for the default subsampling plan"):
            run_test(x, y, KernelSpec(sigma=0.5), draws=200)

    def test_default_plan_runs_at_four_rows(self):
        x, y = self._samples(n=4, m=10)
        for rep in run_tests(x, y, KernelSpec(sigma=0.5), draws=200, seed=1):
            assert rep.plan == SubsamplingPlan.for_sample(4)
            assert 0.0 <= rep.p_value <= 1.0

    def test_explicit_plan_subsamples_from_the_test_seed(self):
        x, y = self._samples()
        plan = SubsamplingPlan(n1=20, k=4, l=4, iterations=50)
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", plan=plan, draws=2000, seed=6)
        assert rep.plan == plan
        np.testing.assert_allclose(
            rep.v_sub, subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 36, seed=6), rtol=1e-15)

    @pytest.mark.parametrize("seed", [0, 6, 2**40])
    def test_one_seed_per_run(self, seed):
        # The default plan, given explicitly, changes nothing: a run has one
        # seed, and the plan holds none.
        x, y = self._samples()
        spec = KernelSpec(sigma=0.5, log_scale=0.3)
        default = run_tests(x, y, spec, draws=1000, seed=seed)
        explicit = run_tests(x, y, spec, plan=SubsamplingPlan.for_sample(40), draws=1000, seed=seed)
        assert [dataclasses.asdict(rep) for rep in explicit] == [dataclasses.asdict(rep) for rep in default]
        plan = SubsamplingPlan.for_sample(40)
        for rep in default:
            np.testing.assert_allclose(subsample_variance(x, spec, rep.kind, plan, 36, seed=seed), rep.v_sub,
                                       rtol=1e-15)

    def test_underflowing_v_sub_names_log_scale(self):
        # n = m = 80, d = 3, sigma = 3^(-3/4): at C = -300 the mvd v_sub
        # scales by e^(-1200), which underflows float64; the report would read
        # v_sub = 0 next to the xi = 0.759 fitted from the positive one.
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((80, 3)), rng.standard_normal((80, 3))
        sigma = 3.0 ** -0.75
        base = run_test(x, y, KernelSpec(sigma=sigma), kind="mvd", seed=0)
        assert base.v_sub > 0.0 and round(base.xi, 3) == 0.759
        with pytest.raises(ValueError, match=r"^log_scale=-300\.0 is too small: the scaled mvd v_sub"):
            run_test(x, y, KernelSpec(sigma=sigma, log_scale=-300.0), kind="mvd", seed=0)
        # e^(-600) keeps the mmd v_sub; the run goes through.
        rep = run_test(x, y, KernelSpec(sigma=sigma, log_scale=-300.0), kind="mmd", seed=0)
        assert rep.v_sub > 0.0

    def test_underflow_out_of_order_still_raises_with_zero_v_sub(self):
        # Two distinct rows, one per pool: every subsample gives the same
        # statistic, so v_sub = 0 and cannot underflow.  The far-off y is
        # rejected at C = 0, and at C = -400 the statistic and critical value
        # underflow to 0, which would read as no rejection.
        x = np.repeat([[0.0, 0.0], [1.0, 0.5]], 20, axis=0)
        y = 3.0 + self._samples(n=4, m=30)[1]
        base = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", draws=2000, seed=1)
        assert base.v_sub == 0.0 and base.reject
        with pytest.raises(ValueError, match="^log_scale=-400.0 is too small: the scaled statistic"):
            run_test(x, y, KernelSpec(sigma=0.5, log_scale=-400.0), kind="mvd", draws=2000, seed=1)


class TestRunTests:
    SPEC = KernelSpec(sigma=0.5)
    PLAN = SubsamplingPlan(n1=22, k=6, l=4, iterations=60)

    def _samples(self):
        rng = np.random.default_rng(97)
        return rng.normal(size=(44, 2)), rng.exponential(size=(38, 2)) - 1.0

    @pytest.mark.parametrize("kinds", [("mvd", "mmd"), ("mmd", "mvd"), ("mvd",), ("mmd",)])
    def test_matches_one_kind_at_a_time(self, kinds):
        x, y = self._samples()
        tau = {"mvd": 0.25}  # mmd falls back to the table
        reports = run_tests(x, y, self.SPEC, kinds=kinds, plan=self.PLAN, tau=tau, draws=1500, seed=4)
        assert [rep.kind for rep in reports] == list(kinds)
        for rep in reports:
            alone, = run_tests(x, y, self.SPEC, kinds=(rep.kind,), plan=self.PLAN, tau=tau,
                               draws=1500, seed=4)
            assert rep == alone
            assert rep.tau == (0.25 if rep.kind == "mvd" else default_tau("mmd", 6 / 44))

    def test_default_plan_and_scalar_tau(self):
        x, y = self._samples()
        reports = run_tests(x, y, self.SPEC, tau=0.1, draws=1500, seed=8)
        assert [rep.kind for rep in reports] == ["mvd", "mmd"]
        for rep in reports:
            assert rep == run_test(x, y, self.SPEC, kind=rep.kind, tau=0.1, draws=1500, seed=8)
            assert rep.tau == 0.1

    @pytest.mark.parametrize("kinds,match", [
        ((), "at least one statistic kind"),
        (("mvd", "mvd"), "must be distinct"),
        (("mvd", "energy"), "unknown statistic kind"),
        ("mvd", re.escape("statistic kinds must be a sequence such as ('mvd',), got the string 'mvd'")),
    ])
    def test_rejects_bad_kinds(self, kinds, match):
        x, y = self._samples()
        with pytest.raises(ValueError, match=match):
            run_tests(x, y, self.SPEC, kinds=kinds, draws=200)

    @pytest.mark.parametrize("kinds", [("mvd", "mmd"), ("mmd", "mvd"), ("mmd",), ("mvd",)])
    def test_holds_at_most_two_square_arrays(self, kinds, monkeypatch):
        # n^2 dominates: a short plan, and the default draws, whose block
        # must stay under the two n x n arrays.  tracemalloc sees numpy's
        # arrays but not the copy LAPACK makes inside eigvalsh, so one n x n
        # array is added to the memory traced at each eigvalsh call.
        n = 1000
        unit = 8 * n * n
        rng = np.random.default_rng(98)
        x, y = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        plan = SubsamplingPlan.for_sample(n, iterations=20)
        readings = []
        real_eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            readings.append(tracemalloc.get_traced_memory()[0] - start + unit)
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_tests(x, y, self.SPEC, kinds=kinds, plan=plan)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(readings) == len(kinds)
        assert peak <= 2.25 * unit
        assert max(readings) <= 2.25 * unit

    def test_draws_do_not_set_the_peak_of_a_small_test(self):
        # At n = 200 the two n x n arrays take 0.6 MB, so the default plan's
        # subsampling buffers and the default 10000 draws set the peak; the
        # draw block must stay far below the 16 MB of 10000 x 199 normals.
        n = 200
        rng = np.random.default_rng(97)
        x, y = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_tests(x, y, self.SPEC)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize("kinds,calls", [(("mvd", "mmd"), 4), (("mmd", "mvd"), 4), (("mvd",), 3),
                                             (("mmd",), 3)])
    def test_both_kinds_rebuild_the_first_gram_block_once(self, kinds, calls, monkeypatch):
        # The price of holding two n x n arrays: K_XY, K_X and K_Y, then K_X
        # again for the mmd spectrum once H's spectrum has freed its buffer.
        shapes = []
        real_gram = mvdtest.null.gram

        def counting_gram(a, b, *args, **kwargs):
            shapes.append((len(a), len(b)))
            return real_gram(a, b, *args, **kwargs)

        monkeypatch.setattr(mvdtest.null, "gram", counting_gram)
        x, y = self._samples()
        run_tests(x, y, self.SPEC, kinds=kinds, plan=self.PLAN, draws=200)
        assert shapes == [(44, 38), (44, 44), (38, 38), (44, 44)][:calls]

    def test_rejects_unknown_kind_in_tau_mapping(self):
        # A misspelt key would otherwise leave that kind on its default tau.
        x, y = self._samples()
        with pytest.raises(ValueError, match="unknown statistic kind 'mdv'"):
            run_tests(x, y, self.SPEC, tau={"mdv": 0.3}, draws=200)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5, {"mvd": 0.2, "mmd": math.nan},
                                     {"mmd": math.inf}, {"mvd": -1.0}])
    def test_rejects_a_bad_tau_before_any_gram_block(self, tau, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram block was built before tau was checked")

        monkeypatch.setattr(mvdtest.null, "gram", no_gram)
        x, y = self._samples()
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            run_tests(x, y, self.SPEC, tau=tau, draws=200)

    @pytest.mark.parametrize("tau,bad", [("0.3", "0.3"), (True, True), ({"mvd": "0.3"}, "0.3"),
                                         ({"mvd": 0.2, "mmd": True}, True)])
    def test_rejects_a_tau_that_is_not_a_real_before_any_gram_block(self, tau, bad, monkeypatch):
        # "0.3" used to run as 0.3 and True as 1.0, alone or in a mapping.
        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram block was built before tau was checked")

        monkeypatch.setattr(mvdtest.null, "gram", no_gram)
        x, y = self._samples()
        with pytest.raises(ValueError, match=re.escape(f"tau must be a real number, got {bad!r}")):
            run_tests(x, y, self.SPEC, tau=tau, draws=200)

    def test_nothing_clipped_reads_positive_zero(self):
        # The negated sum of an empty selection is -0.0, which mvdtest test
        # printed as "clipped_mass": -0.0.  The clamp removes nothing in most
        # of these reports and something in a few.
        x, y = self._samples()
        reports = [rep for n, sigma, log_scale in itertools.product((20, 44), (1e-3, 0.5, 20.0), (0.0, 0.7))
                   for rep in run_tests(x[:n], y, KernelSpec(sigma, log_scale), draws=200,
                                        plan=SubsamplingPlan.for_sample(n, iterations=20))]
        assert any(rep.clipped_count for rep in reports)
        for rep in reports:
            if rep.clipped_count == 0:
                assert math.copysign(1.0, rep.clipped_mass) == 1.0


_X = np.random.default_rng(3).standard_normal((20, 2))
_CELL = ("d^-3/4", 2, 20, 20)
COUNTS = {
    "run_tests": ("draws", lambda v: run_tests(_X, _X[:12], KernelSpec(sigma=0.5), draws=v)),
    "sample_weighted_chisq": ("j", lambda v: sample_weighted_chisq(_unit_weights([1.0, 0.5]), 0.5, v)),
    "subsample_variance": ("m", lambda v: subsample_variance(_X, KernelSpec(sigma=0.5), "mvd",
                                                             SubsamplingPlan.for_sample(20), v)),
    "critical_value": ("draws", lambda v: critical_value(fit_wprime(_unit_weights([1.0, 0.5]), 0.5, 1.0, 0.0),
                                                         0.05, draws=v)),
    "sample": ("n", lambda v: sample(DistributionSpec.std_normal(2), v)),
    "variance_table": ("reps", lambda v: variance_table([_CELL], reps=v)),
    "type1_power_table": ("reps", lambda v: type1_power_table([_CELL], reps=v)),
}


@pytest.mark.parametrize("bad", [20.9, 20.0, True, "20", None])
@pytest.mark.parametrize("entry", list(COUNTS))
def test_counts_refuse_non_integers(entry, bad):
    # int() would truncate: draws=20.9 would run 20 draws, reps=2.9 two reps.
    name, call = COUNTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        call(bad)
