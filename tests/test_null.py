"""Null-law weights, subsampling variance, moment correction, and the test runner."""

import dataclasses
import itertools
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import reference as ref
import mvdtest.null
from mvdtest import (
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
    sample_weighted_chisq,
    spectral_weights,
    subsample_variance,
)
from mvdtest.kernels import gram_set_from_blocks
from mvdtest.discrepancy import statistic

CHI2_1_Q95 = 3.841458820694124  # 0.95 quantile of chi-square with 1 degree of freedom


def _reference_subsample_variance(x, spec, kind, plan, m):
    """subsample_variance as a loop of Gram sets rebuilt from the raw rows."""
    n = x.shape[0]
    vals = np.empty(plan.iterations)
    for i in range(plan.iterations):
        sub_rng = np.random.default_rng([plan.seed, 0, i])
        one = sub_rng.choice(plan.n1, size=plan.k, replace=False)
        two = plan.n1 + sub_rng.choice(n - plan.n1, size=plan.l, replace=False)
        g = build_gram_set(x[one], x[two], spec)
        vals[i] = (plan.k + plan.l) * statistic(g, kind)
    scale = ((n + m) ** 4 / (n**2 * m**2)) * ((plan.k * plan.l) ** 2 / (plan.k + plan.l) ** 4)
    return vals.var(ddof=1) * scale


def _unit_weights(values):
    lam = np.asarray(values, dtype=float)
    return SpectralWeights(lambdas=lam, trace=float(lam.sum()), clipped_count=0, clipped_mass=0.0)


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

    def test_rejects_small_subsamples(self):
        with pytest.raises(ValueError, match="must be >= 2"):
            SubsamplingPlan(n1=10, k=1, l=5)

    def test_rejects_k_above_first_pool(self):
        with pytest.raises(ValueError, match="exceeds the first pool"):
            SubsamplingPlan(n1=4, k=5, l=2)

    def test_rejects_single_iteration(self):
        with pytest.raises(ValueError, match="at least 2 iterations"):
            SubsamplingPlan(n1=10, k=2, l=2, iterations=1)

    @pytest.mark.parametrize("name", ["n1", "k", "l", "iterations", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4", None])
    def test_rejects_non_integer_fields(self, name, bad):
        fields = dict(n1=20, k=3, l=3, iterations=10, seed=0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            SubsamplingPlan(**{**fields, name: bad})

    def test_numpy_integers_are_stored_as_ints(self):
        # np.uint8 products would wrap (k * k = 400 > 255) if kept as numpy scalars.
        plan = SubsamplingPlan(n1=np.int64(20), k=np.uint8(20), l=np.int32(3),
                               iterations=np.int16(10), seed=np.uint64(7))
        assert plan == SubsamplingPlan(n1=20, k=20, l=3, iterations=10, seed=7)
        assert all(type(getattr(plan, name)) is int for name in ("n1", "k", "l", "iterations", "seed"))

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            SubsamplingPlan(n1=10, k=3, l=3, iterations=10, seed=seed)

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
        w = spectral_weights(h_matrix(g), 20)
        assert w.lambdas.shape == (19,)
        assert (w.lambdas >= 0).all()
        assert (np.diff(w.lambdas) <= 1e-15).all()

    def test_trace_identity(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(30, 3))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.4)))
        w = spectral_weights(h, 30)
        np.testing.assert_allclose(w.trace + w.clipped_mass, np.trace(h) / 30, rtol=1e-10)

    def test_clip_accounting_is_tiny_for_psd_source(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=(25, 2))
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.6)))
        w = spectral_weights(h, 25)
        assert w.clipped_mass <= 1e-6 * np.trace(h) / 25

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="source must be 4 x 4"):
            spectral_weights(np.eye(3), 4)

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
        h = h_matrix(build_gram_set(x, x, KernelSpec(sigma=0.5)))
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

    def test_zero_weights_need_no_randomness(self):
        out = sample_weighted_chisq(_unit_weights([0.0, 0.0]), 0.5, 17, seed=77)
        np.testing.assert_array_equal(out, np.zeros(17))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho must be in"):
            sample_weighted_chisq(_unit_weights([1.0]), 1.0, 10)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            sample_weighted_chisq(_unit_weights([1.0]), 0.5, 0)


class TestSubsampleVariance:
    def test_matches_independent_reconstruction(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(24, 2))
        spec = KernelSpec(sigma=0.5, log_scale=0.1)
        plan = SubsamplingPlan(n1=12, k=4, l=5, iterations=40, seed=17)
        for kind in ("mvd", "mmd"):
            np.testing.assert_allclose(subsample_variance(x, spec, kind, plan, 20),
                                       _reference_subsample_variance(x, spec, kind, plan, 20),
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind", ["mvd", "mmd"])
    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_chunks_match_reference_loop(self, kind, sigma):
        # k != l and large enough that the 100 iterations span several
        # chunks and end in a partial one.
        rng = np.random.default_rng(65)
        x = rng.normal(size=(130, 2))
        spec = KernelSpec(sigma=sigma, log_scale=0.5)
        plan = SubsamplingPlan(n1=70, k=60, l=45, iterations=100, seed=23)
        chunk = mvdtest.null._CHUNK_SCALARS // (60 * 60 + 45 * 45 + 60 * 45)
        assert 2 <= plan.iterations // chunk and plan.iterations % chunk != 0
        np.testing.assert_allclose(subsample_variance(x, spec, kind, plan, 90),
                                   _reference_subsample_variance(x, spec, kind, plan, 90),
                                   rtol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-3, 20.0])
    def test_shared_kinds_match_reference_loop(self, sigma):
        # Both kinds from one set of gathered chunks, in either order: the
        # mmd sums must not see the in-place mvd centering.
        rng = np.random.default_rng(66)
        x = rng.normal(size=(130, 2))
        spec = KernelSpec(sigma=sigma, log_scale=0.5)
        plan = SubsamplingPlan(n1=70, k=60, l=45, iterations=100, seed=29)
        want = {kind: _reference_subsample_variance(x, spec, kind, plan, 90) for kind in ("mvd", "mmd")}
        k_x = gram(x, x, spec)
        for kinds in (("mvd", "mmd"), ("mmd", "mvd")):
            got = mvdtest.null._subsample_variance(k_x, kinds, plan, 90)
            for kind, value in zip(kinds, got):
                np.testing.assert_allclose(value, want[kind], rtol=1e-12)
                assert value == subsample_variance(x, spec, kind, plan, 90)

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(20, 2))
        plan = SubsamplingPlan(n1=10, k=3, l=3, iterations=25, seed=4)
        a = subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 20)
        b = subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 20)
        assert a == b

    def test_identical_rows_give_zero(self):
        x = np.ones((16, 2))
        plan = SubsamplingPlan(n1=8, k=3, l=3, iterations=10, seed=1)
        assert subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 16) == 0.0

    def test_scaling_with_log_scale(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(28, 3))
        plan = SubsamplingPlan(n1=14, k=4, l=4, iterations=30, seed=8)
        lo_mvd = subsample_variance(x, KernelSpec(sigma=0.4), "mvd", plan, 28)
        hi_mvd = subsample_variance(x, KernelSpec(sigma=0.4, log_scale=0.5), "mvd", plan, 28)
        np.testing.assert_allclose(hi_mvd, math.exp(2.0) * lo_mvd, rtol=1e-10)
        lo_mmd = subsample_variance(x, KernelSpec(sigma=0.4), "mmd", plan, 28)
        hi_mmd = subsample_variance(x, KernelSpec(sigma=0.4, log_scale=0.5), "mmd", plan, 28)
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


class TestSubsampleLanes:
    """Above a size gate the chunks run on one lane per CPU; results must not depend on it."""

    # 27100 scalars per iteration, above the gate: chunks of 9 iterations, the last one short.
    ABOVE = SubsamplingPlan(n1=200, k=100, l=90, iterations=23, seed=31)
    # 8325 scalars per iteration, below the gate: four chunks on one lane.
    BELOW = SubsamplingPlan(n1=200, k=60, l=45, iterations=100, seed=37)

    @staticmethod
    def _k_x(sigma=0.5):
        x = np.random.default_rng(67).normal(size=(400, 2))
        return gram(x, x, KernelSpec(sigma=sigma, log_scale=0.5))

    def test_plans_straddle_the_gate(self):
        def scalars(p):
            return p.k * p.k + p.l * p.l + p.k * p.l
        assert scalars(self.BELOW) < mvdtest.null._LANE_SCALARS <= scalars(self.ABOVE)
        chunk = mvdtest.null._CHUNK_SCALARS // scalars(self.ABOVE)
        assert 2 <= self.ABOVE.iterations // chunk and self.ABOVE.iterations % chunk != 0

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
                    got.append(mvdtest.null._subsample_variance(k_x, kinds, plan, 350))
                assert got[1] == got[0] and got[2] == got[0]
        finally:
            sys.setswitchinterval(interval)

    def test_lanes_match_reference_loop(self, monkeypatch):
        x = np.random.default_rng(68).normal(size=(400, 2))
        spec = KernelSpec(sigma=0.7)
        monkeypatch.setattr(mvdtest.null, "_worker_count", lambda: 2)
        for kind in ("mvd", "mmd"):
            np.testing.assert_allclose(subsample_variance(x, spec, kind, self.ABOVE, 350),
                                       _reference_subsample_variance(x, spec, kind, self.ABOVE, 350),
                                       rtol=1e-12)

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
        mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), self.BELOW, 350)
        assert pools == [] and lanes == {threading.get_ident()}
        mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), self.ABOVE, 350)
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
            mvdtest.null._subsample_variance(self._k_x(), ("mvd", "mmd"), self.ABOVE, 350)
        assert info.value is failure

    def test_run_tests_reports_do_not_depend_on_worker_count(self, monkeypatch):
        # n = 600 gives the default k = l = 75, above the gate.
        rng = np.random.default_rng(69)
        x, y = rng.normal(size=(600, 2)), rng.normal(size=(450, 2))
        plan = SubsamplingPlan.for_sample(600, iterations=40, seed=3)
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
        got = mvdtest.null._pcg64_states(prefix, self.INDICES)
        assert got == [np.random.default_rng([*prefix, i]).bit_generator.state for i in self.INDICES]

    @pytest.mark.parametrize("seed", [7, 2**70 + 3])
    def test_choice_outputs_match_default_rng(self, seed):
        states = mvdtest.null._stream_states((seed, 0), 1000)
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)
        for i, state in enumerate(states):
            bits.state = state
            want = np.random.default_rng([seed, 0, i])
            assert np.array_equal(rng.choice(100, size=25, replace=False),
                                  want.choice(100, size=25, replace=False))
            assert np.array_equal(rng.choice(100, size=25, replace=False),
                                  want.choice(100, size=25, replace=False))

    def test_subsample_variance_matches_reference_at_a_wide_seed(self, monkeypatch):
        x = np.random.default_rng(70).normal(size=(40, 3))
        plan = SubsamplingPlan(n1=20, k=6, l=5, iterations=200, seed=2**70 + 3)
        k_x = gram(x, x, KernelSpec(sigma=0.7))
        got = mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), plan, 30)
        for kind, value in zip(("mvd", "mmd"), got):
            # The reference sums each statistic in another order, so it agrees to
            # round-off; a wrong stream would move v_sub by far more.
            np.testing.assert_allclose(value, _reference_subsample_variance(
                x, KernelSpec(sigma=0.7), kind, plan, 30), rtol=1e-12)

        def default_rng_states(prefix, count):
            return [np.random.default_rng([*prefix, i]).bit_generator.state for i in range(count)]

        monkeypatch.setattr(mvdtest.null, "_stream_states", default_rng_states)
        assert mvdtest.null._subsample_variance(k_x, ("mvd", "mmd"), plan, 30) == got

    def test_self_check_refuses_a_wrong_state(self, monkeypatch):
        real = mvdtest.null._pcg64_states

        def off_by_one(prefix, indices):
            states = real(prefix, indices)
            pcg = states[0]["state"]
            states[0] = {**states[0], "state": {**pcg, "state": pcg["state"] ^ 1}}
            return states

        monkeypatch.setattr(mvdtest.null, "_pcg64_states", off_by_one)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} seeds default_rng"):
            mvdtest.null._subsample_variance(TestSubsampleLanes._k_x(), ("mvd",),
                                             TestSubsampleLanes.BELOW, 350)

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
        na = fit_wprime(_unit_weights([0.7, 0.2]), 0.4, 5.0, 0.3, draws_j=4000)
        mu_s = 0.9 / (0.4 * 0.6)
        v_s = 2 * (0.49 + 0.04) / (0.4 * 0.6) ** 2
        np.testing.assert_allclose(na.uncorrected_mean, mu_s, rtol=1e-12)
        np.testing.assert_allclose(na.uncorrected_variance, v_s, rtol=1e-12)
        np.testing.assert_allclose(na.mean, na.xi * mu_s + na.c, rtol=1e-12)
        np.testing.assert_allclose(na.variance, (1 + 0.3) * 5.0, rtol=1e-12)
        assert na.draws_j == 4000

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

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            fit_wprime(_unit_weights([1.0]), 0.5, 1.0, -0.1)


class TestCriticalValue:
    def test_single_weight_matches_chi_square_quantile(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0, draws_j=10**6)
        cv = critical_value(na, 0.05, seed=123)
        assert abs(cv - 4 * CHI2_1_Q95) < 0.15

    def test_rank_on_small_sample(self):
        # J = 20constructed draws: quantile rank ceil(20 * 0.95) = 19 -> 19th
        # smallest value, i.e. the second largest.
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0, draws_j=20)
        draws = sample_weighted_chisq(na.weights, na.rho, 20, seed=3)
        want = np.sort(na.xi * draws + na.c)[18]
        np.testing.assert_allclose(critical_value(na, 0.05, seed=3), want, rtol=1e-15)

    def test_rejects_too_few_draws(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0, draws_j=10)
        with pytest.raises(ValueError, match="too small for alpha"):
            critical_value(na, 0.05)

    def test_rejects_bad_alpha(self):
        na = fit_wprime(_unit_weights([1.0]), 0.5, 32.0, 0.0)
        with pytest.raises(ValueError, match="alpha must be in"):
            critical_value(na, 0.0)

    def test_smaller_alpha_larger_critical_value(self):
        na = fit_wprime(_unit_weights([1.0, 0.3]), 0.5, 40.0, 0.1, draws_j=10**5)
        assert critical_value(na, 0.01, seed=5) > critical_value(na, 0.10, seed=5)


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
        assert rep.plan == SubsamplingPlan.for_sample(48, seed=3)
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
        w = spectral_weights(h_matrix(build_gram_set(x, y, KernelSpec(sigma=0.5))), 40)
        na = fit_wprime(w, 40 / 76, rep.v_sub, rep.tau, draws_j=2000)
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
        # in place; the public pieces, composed, must give the same bits.
        # The test draws its null law from the stream (seed, 1), not from seed.
        x, y = self._samples()
        spec = KernelSpec(sigma=sigma, log_scale=log_scale)
        reports = run_tests(x, y, spec, kinds=("mvd", "mmd"), draws=2000, seed=21)
        g = build_gram_set(x, y, spec)
        plan = SubsamplingPlan.for_sample(g.n, divisor=8, seed=21)
        rho = g.n / (g.n + g.m)
        for rep in reports:
            kind = rep.kind
            w = spectral_weights(h_matrix(g) if kind == "mvd" else g.kc_x, g.n)
            v = subsample_variance(x, spec, kind, plan, g.m)
            law = fit_wprime(w, rho, v, tau=default_tau(kind, plan.k / g.n), draws_j=2000)
            stat = (g.n + g.m) * statistic(g, kind)
            s = sample_weighted_chisq(w, rho, 2000, seed=[21, 1])
            assert stat == rep.statistic
            assert critical_value(law, 0.05, seed=[21, 1]) == rep.critical_value
            assert critical_value(dataclasses.replace(law, xi=1.0, c=0.0), 0.05,
                                  seed=[21, 1]) == rep.critical_value_uncorrected
            assert float(np.mean(law.xi * s + law.c >= stat)) == rep.p_value
            assert (w.trace, w.clipped_count, w.clipped_mass) == (
                rep.weights_trace, rep.clipped_count, rep.clipped_mass)
            assert critical_value(law, 0.05, seed=21) != rep.critical_value

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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            run_test(np.zeros((10, 2)), np.zeros((10, 3)), KernelSpec(sigma=1.0))

    @pytest.mark.parametrize("kind,log_scale", [("mvd", 300.0), ("mvd", 400.0), ("mmd", 800.0)])
    def test_kernel_scale_overflow_fails_loudly(self, kind, log_scale):
        # mvd at C=300 overflows only v_sub; the other two overflow the
        # spectrum's source matrix.
        x, y = self._samples(seed=96, n=100, m=100, d=3)
        with np.errstate(over="ignore", invalid="ignore"):
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
            assert rep.plan == SubsamplingPlan.for_sample(4, seed=1)
            assert 0.0 <= rep.p_value <= 1.0

    def test_explicit_plan_is_used(self):
        x, y = self._samples()
        plan = SubsamplingPlan(n1=20, k=4, l=4, iterations=50, seed=99)
        rep = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", plan=plan, draws=2000, seed=6)
        assert rep.plan == plan
        np.testing.assert_allclose(
            rep.v_sub, subsample_variance(x, KernelSpec(sigma=0.5), "mvd", plan, 36), rtol=1e-15)


class TestRunTests:
    SPEC = KernelSpec(sigma=0.5)
    PLAN = SubsamplingPlan(n1=22, k=6, l=4, iterations=60, seed=5)

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
    ])
    def test_rejects_bad_kinds(self, kinds, match):
        x, y = self._samples()
        with pytest.raises(ValueError, match=match):
            run_tests(x, y, self.SPEC, kinds=kinds, draws=200)

    def test_holds_at_most_three_square_arrays(self, monkeypatch):
        # n^2 dominates: a short plan and few draws.  tracemalloc sees numpy's
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
            run_tests(x, y, self.SPEC, plan=plan, draws=100)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(readings) == 2
        assert peak <= 3.25 * unit
        assert max(readings) <= 3.25 * unit

    def test_rejects_unknown_kind_in_tau_mapping(self):
        # A misspelt key would otherwise leave that kind on its default tau.
        x, y = self._samples()
        with pytest.raises(ValueError, match="unknown statistic kind 'mdv'"):
            run_tests(x, y, self.SPEC, tau={"mdv": 0.3}, draws=200)
