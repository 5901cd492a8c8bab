"""Seeded property checks of the statistics and the test over a grid of designs."""

import itertools

import numpy as np
import pytest

from mvdtest import KernelSpec, SubsamplingPlan, build_gram_set, run_tests, statistic
from mvdtest.discrepancy import KINDS

# (n, m, d), each with n != m.
SHAPES = [(30, 23, 1), (17, 40, 3), (50, 8, 5)]
SIGMAS = [1e-3, 0.5, 20.0]
LOG_SCALES = [0.0, 0.5]
GRID = list(itertools.product(SHAPES, SIGMAS, LOG_SCALES))
GRID_IDS = [f"n{n}-m{m}-d{d}-sigma{s}-C{c}" for (n, m, d), s, c in GRID]


def _samples(n, m, d, law):
    """x ~ N(0, I); y from the same law ("null") or a centered exponential ("alternative")."""
    rng = np.random.default_rng([n, m, d])
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) if law == "null" else rng.exponential(size=(m, d)) - 1.0
    return x, y


def _stat(x, y, spec, kind):
    return statistic(build_gram_set(x, y, spec), kind)


@pytest.mark.parametrize("law", ["null", "alternative"])
@pytest.mark.parametrize("shape,sigma,log_scale", GRID, ids=GRID_IDS)
class TestStatisticProperties:
    def test_row_permutation_invariance(self, shape, sigma, log_scale, law):
        n, m, d = shape
        x, y = _samples(n, m, d, law)
        spec = KernelSpec(sigma=sigma, log_scale=log_scale)
        for kind in KINDS:
            want = _stat(x, y, spec, kind)
            for t in range(3):
                rng = np.random.default_rng([7, t])
                np.testing.assert_allclose(_stat(x[rng.permutation(n)], y, spec, kind), want, rtol=1e-12)
                np.testing.assert_allclose(_stat(x, y[rng.permutation(m)], spec, kind), want, rtol=1e-12)

    def test_swapping_the_samples_keeps_the_statistic(self, shape, sigma, log_scale, law):
        n, m, d = shape
        x, y = _samples(n, m, d, law)
        spec = KernelSpec(sigma=sigma, log_scale=log_scale)
        for kind in KINDS:
            np.testing.assert_allclose(_stat(y, x, spec, kind), _stat(x, y, spec, kind), rtol=1e-12)


@pytest.mark.parametrize("law", ["null", "alternative"])
@pytest.mark.parametrize("shape,sigma,log_scale", GRID, ids=GRID_IDS)
def test_reports_are_self_consistent(shape, sigma, log_scale, law):
    n, m, d = shape
    x, y = _samples(n, m, d, law)
    plan = SubsamplingPlan.for_sample(n, divisor=4, iterations=60)
    for rep in run_tests(x, y, KernelSpec(sigma=sigma, log_scale=log_scale), plan=plan, draws=400, seed=m):
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.reject == (rep.statistic > rep.critical_value)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("m", [2, 9])
def test_smallest_feasible_sample_runs(sigma, m):
    x, y = _samples(4, m, 2, "alternative")
    for rep in run_tests(x, y, KernelSpec(sigma=sigma), draws=200, seed=1):
        assert rep.plan == SubsamplingPlan(n1=2, k=2, l=2, iterations=1000)
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.reject == (rep.statistic > rep.critical_value)
