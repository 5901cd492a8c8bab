"""End-to-end correctness gates with pinned tolerances.

Each test here checks one externally meaningful guarantee of the package:
agreement with brute-force oracles, closed-form consistency and accuracy
against a high-precision oracle, convergence of the estimator to its
population value, spectrum integrity, Monte Carlo reference bands for the
null variance and test power, scale equivariance, the moment contract of
the corrected null law, and the Monte Carlo tail against Imhof's exact one.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import reference as ref
from mvdtest import (
    GaussianSpec,
    KernelSpec,
    SubsamplingPlan,
    build_gram_set,
    fit_wprime,
    h_matrix,
    mmd_sq_gaussian,
    mmd_sq_isotropic,
    mvd_sq_gaussian,
    mvd_sq_isotropic,
    run_test,
    run_tests,
    sample_weighted_chisq,
    spectral_weights,
    statistic,
    subsample_variance,
    type1_power_table,
    variance_table,
)
from mvdtest.kernels import _rescale
from mvdtest.null import _law_moments


def test_statistics_match_brute_force_expansion():
    """50 random small instances agree with the O(n^2 m^2) loop oracles."""
    start = time.time()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n, m = rng.integers(2, 13, size=2)
        d = rng.integers(1, 4)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(m, d)) * rng.uniform(0.5, 1.5) + rng.normal(size=d) * 0.3
        sigma = rng.uniform(0.1, 1.5)
        c = rng.uniform(-0.5, 0.5)
        g = build_gram_set(x, y, KernelSpec(sigma=sigma, log_scale=c))
        np.testing.assert_allclose(statistic(g, "mvd"), ref.mvd_norm_expansion(x, y, sigma, c),
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(statistic(g, "mmd"), ref.mmd_pairwise(x, y, sigma, c),
                                   rtol=1e-10, atol=0.0)
    assert time.time() - start < 10.0


def test_general_and_isotropic_closed_forms_agree():
    """The isotropic functions give the general Gaussian forms of
    GaussianSpec.isotropic(t, s, d) to 1e-12 across a (t, s, d, sigma) grid,
    and both vanish when the two distributions coincide."""
    start = time.time()
    for t in (0.0, 0.5, 1.0):
        for s in (0.5, 1.0, 2.0):
            for d in (1, 5, 10):
                for sigma in (0.05, 0.1):
                    q = GaussianSpec.isotropic(t, s, d)
                    np.testing.assert_allclose(
                        mvd_sq_gaussian(q, sigma), mvd_sq_isotropic(t, s, d, sigma),
                        rtol=1e-12, atol=1e-15)
                    np.testing.assert_allclose(
                        mmd_sq_gaussian(q, sigma), mmd_sq_isotropic(t, s, d, sigma),
                        rtol=1e-12, atol=1e-15)
                    if t == 0.0 and s == 1.0:
                        assert mvd_sq_isotropic(t, s, d, sigma) < 1e-13
                        assert mvd_sq_gaussian(q, sigma) < 1e-13
                        assert mmd_sq_isotropic(t, s, d, sigma) < 1e-13
                        assert mmd_sq_gaussian(q, sigma) < 1e-13
    assert time.time() - start < 1.0


def test_closed_forms_match_decimal_oracle():
    """Away from P = Q, on the same (t, s, d, sigma) grid, both closed forms
    are within 1e-12 relative of the isotropic formulas evaluated at 50
    decimal digits, an oracle that shares no code with the library."""
    for t in (0.0, 0.5, 1.0):
        for s in (0.5, 1.0, 2.0):
            for d in (1, 5, 10):
                for sigma in (0.05, 0.1):
                    if t == 0.0 and s == 1.0:
                        continue
                    want_mvd, want_mmd = ref.isotropic_sq_by_decimal(t, s, d, sigma)
                    np.testing.assert_allclose(mvd_sq_isotropic(t, s, d, sigma), want_mvd,
                                               rtol=1e-12, atol=0.0)
                    np.testing.assert_allclose(mmd_sq_isotropic(t, s, d, sigma), want_mmd,
                                               rtol=1e-12, atol=0.0)


def test_estimator_mean_approaches_closed_form():
    """Mean of the covariance statistic over 20 large-sample replications
    stays within 3 standard errors plus an O(1/n) bias allowance of the
    analytic population value."""
    n = 1500
    closed = mvd_sq_gaussian(GaussianSpec.isotropic(0.5, 1.5, 2), 0.25)
    values = np.empty(20)
    for r in range(20):
        rng = np.random.default_rng([1, r])
        x = rng.standard_normal((n, 2))
        y = 0.5 + rng.standard_normal((n, 2)) * math.sqrt(1.5)
        values[r] = statistic(build_gram_set(x, y, KernelSpec(sigma=0.25)), "mvd")
    se = values.std(ddof=1) / math.sqrt(values.size)
    allowance = 3 * se + 10 * closed / n
    assert abs(values.mean() - closed) < allowance


def test_spectrum_integrity_and_uncorrected_mean():
    """The spectrum source annihilates constants, retained weights are
    non-negative and sum to tr(H)/n, and the simulated law has the matching
    mean."""
    start = time.time()
    n, m = 150, 130
    rng = np.random.default_rng(424)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((m, 2))
    g = build_gram_set(x, y, KernelSpec(sigma=0.5))
    h = h_matrix(g.kc_x)

    assert np.abs(h @ np.ones(n)).max() < 1e-9 * n * np.abs(h).max()
    w = spectral_weights(h, n)
    assert (w.lambdas >= 0.0).all()
    np.testing.assert_allclose(w.trace, np.trace(h) / n, rtol=1e-8)

    rho = n / (n + m)
    draws = sample_weighted_chisq(w, rho, 10**5, seed=77)
    want_mean = w.trace / (rho * (1 - rho))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - want_mean) < 3 * se
    assert time.time() - start < 30.0


@pytest.mark.slow
def test_null_variance_of_scaled_statistic_in_reference_band():
    """Simulated Var[(n+m) * statistic] under P = Q = N(0, I_5) at
    sigma = 5^(-3/4), n = m = 200 falls in its reference band."""
    result = variance_table(cells=[("d^-3/4", 5, 200, 200)], reps=2000,
                            divisors=(4, 6, 8), iterations=1000, seed=0)
    exact = {row["kind"]: row["value"] for row in result.rows
             if row["estimate"] == "exact_variance"}
    assert 0.052 <= exact["mvd"] <= 0.086
    assert 0.43 <= exact["mmd"] <= 0.71


@pytest.mark.slow
def test_type_one_error_and_power_bands():
    """At the same cell both tests keep their nominal level, the covariance test has full
    power against the centered exponential, and beats the mean-embedding test
    against the uniform alternative by at least two combined standard
    errors."""
    result = type1_power_table(cells=[("d^-3/4", 5, 200, 200)],
                               alternatives=("uniform", "exponential"),
                               alpha=0.05, reps=500, divisor=8,
                               iterations=1000, draws=10000, seed=0)
    rates = {(row["kind"], row["scenario"]): (row["value"], row["se"])
             for row in result.rows}
    mvd_null = rates["mvd", "null"][0]
    assert 0.03 <= mvd_null <= 0.09
    mmd_null = rates["mmd", "null"][0]
    assert 0.03 <= mmd_null <= 0.09
    assert rates["mvd", "exponential"][0] >= 0.95
    gap = rates["mvd", "uniform"][0] - rates["mmd", "uniform"][0]
    combined_se = math.hypot(rates["mvd", "uniform"][1], rates["mmd", "uniform"][1])
    assert gap >= 2 * combined_se


def test_log_scale_equivariance():
    """Raising the kernel scale C by delta multiplies the covariance
    statistic and its null weights by e^(2 delta), the mean statistic by
    e^delta, and the subsampled variance by e^(4 delta) (covariance) and
    e^(2 delta) (mean).  A test report at any C is the C = 0 report with its
    magnitudes scaled by that one helper: p_value, reject, xi, tau and
    clipped_count keep their bits.  Where the scaled v_sub underflows to 0
    (mvd from C = -300, where e^(4C) does, and mmd at C = -400), the run
    raises a ValueError that names log_scale instead of reporting v_sub = 0
    next to the xi fitted from the positive one."""
    start = time.time()
    delta = 0.7
    rng = np.random.default_rng(515)
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal((60, 3)) * 1.2
    y_alt = rng.exponential(size=(60, 3)) - 1.0
    plan = SubsamplingPlan(n1=30, k=7, l=7, iterations=200)
    lo_spec = KernelSpec(sigma=0.4, log_scale=0.3)
    hi_spec = KernelSpec(sigma=0.4, log_scale=0.3 + delta)

    g_lo = build_gram_set(x, y, lo_spec)
    g_hi = build_gram_set(x, y, hi_spec)
    f_mvd = math.exp(2 * delta)
    f_mmd = math.exp(delta)
    np.testing.assert_allclose(statistic(g_hi, "mvd"), f_mvd * statistic(g_lo, "mvd"), rtol=1e-10)
    np.testing.assert_allclose(statistic(g_hi, "mmd"), f_mmd * statistic(g_lo, "mmd"), rtol=1e-10)

    w_lo = spectral_weights(h_matrix(g_lo.kc_x), 60)
    w_hi = spectral_weights(h_matrix(g_hi.kc_x), 60)
    np.testing.assert_allclose(w_hi.lambdas, f_mvd * w_lo.lambdas,
                               rtol=1e-9, atol=1e-12 * w_hi.lambdas.max())

    for kind, v_factor in (("mvd", math.exp(4 * delta)), ("mmd", math.exp(2 * delta))):
        v_lo = subsample_variance(x, lo_spec, kind, plan, 60, seed=44)
        v_hi = subsample_variance(x, hi_spec, kind, plan, 60, seed=44)
        np.testing.assert_allclose(v_hi, v_factor * v_lo, rtol=1e-9)

    scaled_fields = ("statistic", "critical_value", "critical_value_uncorrected", "c", "weights_trace",
                     "clipped_mass")
    v_sub_underflows = {("mvd", -300.0), ("mvd", -400.0), ("mmd", -400.0)}
    for y_test, rejects in ((y, False), (y_alt, True)):
        for kind, power in (("mvd", 2.0), ("mmd", 1.0)):
            base = run_test(x, y_test, KernelSpec(sigma=0.4), kind=kind, plan=plan, draws=4000, seed=7)
            assert base.reject == rejects
            assert base.v_sub > 0.0
            for c in (0.7, 5.0, -300.0, -400.0):
                spec = KernelSpec(sigma=0.4, log_scale=c)
                if (kind, c) in v_sub_underflows:
                    with pytest.raises(ValueError, match=f"^log_scale={c!r} is too small: the scaled {kind} "
                                                         "v_sub underflowed float64 to 0"):
                        run_test(x, y_test, spec, kind=kind, plan=plan, draws=4000, seed=7)
                    continue
                r = run_test(x, y_test, spec, kind=kind, plan=plan, draws=4000, seed=7)
                assert (r.p_value, r.reject, r.xi, r.tau, r.clipped_count) == (
                    base.p_value, base.reject, base.xi, base.tau, base.clipped_count)
                scaled = {name: _rescale(getattr(base, name), c, power) for name in scaled_fields}
                scaled["v_sub"] = _rescale(base.v_sub, c, 2.0 * power)
                assert r == dataclasses.replace(base, **scaled)
    assert time.time() - start < 60.0


def test_corrected_law_moment_match():
    """A fitted null law keeps the spectrum mean and hits the target
    variance (1 + tau) * v_sub within Monte Carlo tolerance over 1e6 draws."""
    start = time.time()
    rng = np.random.default_rng(626)
    x = rng.standard_normal((80, 3))
    y = rng.standard_normal((80, 3))
    spec = KernelSpec(sigma=0.33)
    g = build_gram_set(x, y, spec)
    w = spectral_weights(h_matrix(g.kc_x), 80)
    plan = SubsamplingPlan(n1=40, k=10, l=10, iterations=400)
    v_sub = subsample_variance(x, spec, "mvd", plan, 80, seed=9)
    tau = 0.30928
    na = fit_wprime(w, 0.5, v_sub, tau)

    s = sample_weighted_chisq(na.weights, na.rho, 10**6, seed=77)
    wprime = na.xi * s + na.c
    se = wprime.std(ddof=1) / math.sqrt(wprime.size)
    assert abs(wprime.mean() - _law_moments(na.weights, na.rho)[0]) < 3 * se
    target_var = (1 + tau) * v_sub
    assert abs(wprime.var(ddof=1) / target_var - 1.0) < 0.05
    assert time.time() - start < 60.0


# Two-sided level of every interval in the exact-tail tests below, fixed
# before any result was seen.
TAIL_LEVEL = 1e-6


@pytest.mark.parametrize("mu", [[1.0], [1e-4], [37.0], [2.5] * 2, [2.5] * 3, [0.7] * 10, [0.7] * 59])
def test_exact_tail_oracle_matches_chi_square(mu):
    """The Imhof oracle is mu * chi2_k for k equal weights mu, across the body and both tails."""
    k, scale = len(mu), mu[0]
    for q in np.concatenate([np.geomspace(1e-9, 0.5, 8), 1.0 - np.geomspace(1e-12, 0.5, 8)]):
        x = stats.chi2.ppf(q, k)
        assert abs(ref.weighted_chisq_sf(mu, scale * x) - stats.chi2.sf(x, k)) < 1e-10


def test_exact_tail_oracle_matches_convolution():
    """Unequal weights: mu1 chi2_1 + mu2 chi2_2 against its one-dimensional convolution."""
    for mu1, mu2 in [(1.0, 0.3), (0.2, 1.0), (1.0, 1e-3)]:
        for x in (0.01, 0.5, 2.0, 6.0, 15.0):
            inner = integrate.quad(lambda t: stats.chi2.sf((x - mu2 * t) / mu1, 1) * stats.chi2.pdf(t, 2),
                                   0.0, x / mu2, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            want = inner + stats.chi2.sf(x / mu2, 2)
            assert abs(ref.weighted_chisq_sf([mu1, mu2, mu2], x) - want) < 1e-10


def test_monte_carlo_tail_matches_exact_tail():
    """Each report's critical values and p-value against the exact law of its own spectrum.

    With S = sum mu_l Z_l^2, mu = lambda / (rho (1 - rho)), and F its exact
    distribution function, the r-th smallest of J draws of S, r = ceil(J (1 -
    alpha)), has F(S_(r)) ~ Beta(r, J + 1 - r), and J p ~ Binomial(J, P(S >=
    (statistic - c) / xi)).  Each check holds at the two-sided level
    TAIL_LEVEL.  One such interval is about +-107 ranks wide at J = 10000, so
    the standardized F(S_(r)) of each kind are also summed over its
    independent runs (one seed each) and held to the normal interval at the
    same level; that sum moves by about 9 sd if the rank moves by 50.
    """
    alpha, draws, n, m = 0.05, 10000, 60, 45
    r = math.ceil(draws * (1.0 - alpha))
    beta = stats.beta(r, draws + 1 - r)
    crit_band = beta.interval(1.0 - TAIL_LEVEL)
    pooled = {"mvd": [], "mmd": []}
    for d, sigma, rep in itertools.product((1, 5), (1e-3, 20.0), range(4)):
        seed = 100 * d + 10 * rep + (sigma > 1)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        spec = KernelSpec(sigma=sigma)
        g = build_gram_set(x, y, spec)
        for report in run_tests(x, y, spec, kinds=("mvd", "mmd"), alpha=alpha, draws=draws, seed=seed):
            w = spectral_weights(h_matrix(g.kc_x) if report.kind == "mvd" else g.kc_x, n)
            rho = n / (n + m)
            assert fit_wprime(w, rho, report.v_sub, report.tau).xi == report.xi > 0.0
            mu = w.lambdas / (rho * (1.0 - rho))

            def cdf_of(wprime_value):
                return 1.0 - ref.weighted_chisq_sf(mu, (wprime_value - report.c) / report.xi)

            position = cdf_of(report.critical_value)
            uncorrected_position = 1.0 - ref.weighted_chisq_sf(mu, report.critical_value_uncorrected)
            assert crit_band[0] <= position <= crit_band[1]
            assert crit_band[0] <= uncorrected_position <= crit_band[1]
            low, high = stats.binom.interval(1.0 - TAIL_LEVEL, draws, 1.0 - cdf_of(report.statistic))
            assert low <= round(draws * report.p_value) <= high
            pooled[report.kind].append((position - beta.mean()) / beta.std())
    bound = stats.norm.isf(TAIL_LEVEL / 2)
    for kind, z in pooled.items():
        assert abs(sum(z)) / math.sqrt(len(z)) <= bound, kind
