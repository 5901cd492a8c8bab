"""Slow, literal reference implementations used as independent oracles.

Everything in here is deliberately written the "dumb" way -- scalar kernel
evaluations in Python loops, explicit projection-matrix centering, four-fold
summations, nested numerical quadrature -- so that agreement with the library
is evidence, not tautology. None of these functions import mvdtest.
"""

import decimal
import math

import numpy as np
from scipy import integrate


def kernel_scalar(x, y, sigma, log_scale=0.0):
    """Gaussian kernel e^C * exp(-sigma * ||x - y||^2) on two points."""
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
    return math.exp(log_scale - sigma * d2)


def gram_by_loops(xs, ys, sigma, log_scale=0.0):
    """Gram matrix by explicit double loop over scalar kernel calls."""
    out = np.empty((len(xs), len(ys)))
    for i in range(len(xs)):
        for j in range(len(ys)):
            out[i, j] = kernel_scalar(xs[i], ys[j], sigma, log_scale)
    return out


def center_by_projection(k):
    """Double-center by multiplying with explicit projection matrices."""
    n, m = k.shape
    pn = np.eye(n) - np.ones((n, n)) / n
    pm = np.eye(m) - np.ones((m, m)) / m
    return pn @ k @ pm


def _centered_inner(k, i, j):
    """<phi_i - mean_x, psi_j - mean_y> from the raw Gram block, by sums.

    Every sum is recomputed per pair on purpose: the oracle overall is the
    O(n^2 m^2) four-fold summation of the norm expansion.
    """
    n, m = k.shape
    row = sum(k[i, v] for v in range(m)) / m
    col = sum(k[u, j] for u in range(n)) / n
    grand = sum(k[u, v] for u in range(n) for v in range(m)) / (n * m)
    return k[i, j] - row - col + grand


def mvd_norm_expansion(x, y, sigma, log_scale=0.0):
    """||Sigma_k(P_hat) - Sigma_k(Q_hat)||^2 by brute-force expansion.

    The squared norm of the difference of empirical covariance operators
    expands into sums of squared *centered* feature inner products:
        (1/n^2) sum_{i,s} <phi~_i, phi~_s>^2
      - (2/nm)  sum_{i,j} <phi~_i, psi~_j>^2
      + (1/m^2) sum_{j,t} <psi~_j, psi~_t>^2
    with each inner product expanded from scalar kernel evaluations.
    """
    n, m = len(x), len(y)
    kxx = gram_by_loops(x, x, sigma, log_scale)
    kyy = gram_by_loops(y, y, sigma, log_scale)
    kxy = gram_by_loops(x, y, sigma, log_scale)
    axx = sum(_centered_inner(kxx, i, s) ** 2 for i in range(n) for s in range(n))
    ayy = sum(_centered_inner(kyy, j, t) ** 2 for j in range(m) for t in range(m))
    axy = sum(_centered_inner(kxy, i, j) ** 2 for i in range(n) for j in range(m))
    return axx / n**2 - 2.0 * axy / (n * m) + ayy / m**2


def mmd_pairwise(x, y, sigma, log_scale=0.0):
    """Biased (V-statistic) squared MMD by explicit pairwise kernel sums."""
    n, m = len(x), len(y)
    sxx = sum(
        kernel_scalar(x[i], x[s], sigma, log_scale) for i in range(n) for s in range(n)
    )
    syy = sum(
        kernel_scalar(y[j], y[t], sigma, log_scale) for j in range(m) for t in range(m)
    )
    sxy = sum(
        kernel_scalar(x[i], y[j], sigma, log_scale) for i in range(n) for j in range(m)
    )
    return sxx / n**2 + syy / m**2 - 2.0 * sxy / (n * m)


def h_by_projection(x, sigma, log_scale=0.0):
    """H = P_n (K~ . K~) P_n with explicit projection products."""
    k = gram_by_loops(x, x, sigma, log_scale)
    kc = center_by_projection(k)
    return center_by_projection(kc * kc)


def eigvals_by_charpoly(a):
    """Eigenvalues of a small symmetric matrix via its characteristic polynomial.

    np.poly builds the characteristic coefficients, np.roots factors them --
    a completely different route than LAPACK's symmetric eigensolver.
    Returns real parts sorted descending (symmetric input => real spectrum).
    """
    coeffs = np.poly(np.asarray(a, dtype=float))
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


# ---------------------------------------------------------------------------
# One-dimensional Gaussian integrals (quadrature oracles for the closed forms)
# ---------------------------------------------------------------------------


def _npdf(t, mu, var):
    return math.exp(-((t - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _k1(t, s, sigma):
    return math.exp(-sigma * (t - s) ** 2)


def _limits(mu, var):
    half = 12.0 * math.sqrt(var)
    return mu - half, mu + half


def mean_inner_by_quadrature(mu0, v0, mu1, v1, sigma):
    """<mu_k(N(mu0,v0)), mu_k(N(mu1,v1))> = E k(X, Y), d = 1, by quadrature."""
    lo0, hi0 = _limits(mu0, v0)
    lo1, hi1 = _limits(mu1, v1)
    val, _ = integrate.dblquad(
        lambda s, t: _k1(t, s, sigma) * _npdf(t, mu0, v0) * _npdf(s, mu1, v1),
        lo0,
        hi0,
        lo1,
        hi1,
    )
    return val


def cov_inner_by_quadrature(mu0, v0, mu1, v1, sigma):
    """<Sigma_k(N(mu0,v0)), Sigma_k(N(mu1,v1))>, d = 1, as I1 - I2 - I3 + I4.

    I1 = E[k(X,Y)^2], I2 = E_Y[(E_X k(X,Y))^2], I3 = E_X[(E_Y k(X,Y))^2],
    I4 = (E k(X,Y))^2, each evaluated by (nested) numerical quadrature.
    """
    lo0, hi0 = _limits(mu0, v0)
    lo1, hi1 = _limits(mu1, v1)

    i1, _ = integrate.dblquad(
        lambda s, t: _k1(t, s, sigma) ** 2 * _npdf(t, mu0, v0) * _npdf(s, mu1, v1),
        lo0,
        hi0,
        lo1,
        hi1,
    )

    def h0(s):
        val, _ = integrate.quad(
            lambda t: _k1(t, s, sigma) * _npdf(t, mu0, v0), lo0, hi0
        )
        return val

    def h1(t):
        val, _ = integrate.quad(
            lambda s: _k1(t, s, sigma) * _npdf(s, mu1, v1), lo1, hi1
        )
        return val

    i2, _ = integrate.quad(lambda s: h0(s) ** 2 * _npdf(s, mu1, v1), lo1, hi1)
    i3, _ = integrate.quad(lambda t: h1(t) ** 2 * _npdf(t, mu0, v0), lo0, hi0)
    i4 = mean_inner_by_quadrature(mu0, v0, mu1, v1, sigma) ** 2
    return i1 - i2 - i3 + i4


def mvd_sq_by_quadrature(mu, var, sigma):
    """Squared MVD between N(0,1) and N(mu, var), d = 1, by quadrature."""
    return (
        cov_inner_by_quadrature(0.0, 1.0, 0.0, 1.0, sigma)
        + cov_inner_by_quadrature(mu, var, mu, var, sigma)
        - 2.0 * cov_inner_by_quadrature(0.0, 1.0, mu, var, sigma)
    )


def mmd_sq_by_quadrature(mu, var, sigma):
    """Squared MMD between N(0,1) and N(mu, var), d = 1, by quadrature."""
    return (
        mean_inner_by_quadrature(0.0, 1.0, 0.0, 1.0, sigma)
        + mean_inner_by_quadrature(mu, var, mu, var, sigma)
        - 2.0 * mean_inner_by_quadrature(0.0, 1.0, mu, var, sigma)
    )


def mmd_sq_by_sampling(mu, var, sigma, pairs=10**6, seed=20260819):
    """Monte Carlo E k(X,X') + E k(Y,Y') - 2 E k(X,Y), d = 1.

    Returns (estimate, standard error of the estimate).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(pairs)
    x2 = rng.standard_normal(pairs)
    sd = math.sqrt(var)
    y = mu + sd * rng.standard_normal(pairs)
    y2 = mu + sd * rng.standard_normal(pairs)
    kxx = np.exp(-sigma * (x - x2) ** 2)
    kyy = np.exp(-sigma * (y - y2) ** 2)
    kxy = np.exp(-sigma * (x - y) ** 2)
    est = kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
    se = math.sqrt(
        (kxx.var(ddof=1) + kyy.var(ddof=1) + 4.0 * kxy.var(ddof=1)) / pairs
    )
    return est, se


def isotropic_sq_by_decimal(t, s, d, sigma):
    """(mvd_sq, mmd_sq) between N(0, I_d) and N(t * 1, s * I_d) in 50-digit decimal arithmetic.

    Evaluates the hand-expanded isotropic formulas (ten terms for mvd, three
    for mmd) from the exact binary values of the float inputs.  The terms are
    of order one, so the cancellation near P = Q that costs float64 six or
    seven digits still leaves about forty here.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        one = decimal.Decimal(1)
        t, s, g = decimal.Decimal(t), decimal.Decimal(s), decimal.Decimal(sigma)
        half = decimal.Decimal(-d) / 2

        def shifted(den, rate):
            # den^(-d/2) * exp(-rate * g * t^2 * d / den)
            return den**half * (-rate * g * t * t * d / den).exp()

        den1 = one + 4 * g + 4 * g * s
        den2 = one + 2 * g + 4 * g * s
        den3 = one + 4 * g + 2 * g * s
        den4 = one + 2 * g + 2 * g * s
        mvd = ((one + 8 * g) ** half
               - 2 * (one + 8 * g + 12 * g * g) ** half
               + (one + 4 * g) ** -d
               + (one + 8 * g * s) ** half
               - 2 * (one + 8 * g * s + 12 * g * g * s * s) ** half
               + (one + 4 * g * s) ** -d
               - 2 * shifted(den1, 2)
               + 2 * (one + 2 * g) ** half * shifted(den2, 2)
               + 2 * (one + 2 * g * s) ** half * shifted(den3, 2)
               - 2 * den4**half * shifted(den4, 2))
        mmd = (one + 4 * g) ** half + (one + 4 * g * s) ** half - 2 * shifted(den4, 1)
        return float(mvd), float(mmd)



def weighted_chisq_sf(mu, x):
    """P(sum_l mu_l Z_l^2 > x) for weights mu >= 0, not all 0, and Z_l i.i.d. N(0, 1).

    Imhof's (1961) integral
        P = 1/2 + (1/pi) int_0^inf sin(A(u) - w u) / (u r(u)) du,   w = x / 2,
        A(u) = (1/2) sum_l arctan(mu_l u),  r(u) = prod_l (1 + mu_l^2 u^2)^(1/4),
    taken by scipy's quad (limit 2000, epsabs 1e-13) after mu and x are
    divided by max mu.  The amplitude 1/(u r(u)) changes on the scale of u
    itself and the phase on the period 2 pi / w, so [0, inf) is cut at
    b = min(1, 2 pi / w), 2b, 4b, ... up to B = max(1, 2 pi / w), the last
    cut at B itself.  The first panel, [0, b], holds at most one period and
    is integrated as is.
    On every later one, sin(A - wu) = sin A cos(wu) - cos A sin(wu) turns the
    integrand into two Fourier integrals with a smooth amplitude: QUADPACK's
    QAWO on each finite panel (however many periods it holds), and QAWF on
    [B, inf), where the amplitude decays as u^(-3/2) or faster.  quad's error
    estimates for these pieces run orders of magnitude above the true error,
    so they are not used (full_output keeps them quiet); the acceptance tests
    check the result against closed forms instead.  The result is clamped to
    [0, 1].
    """
    mu = np.asarray(mu, dtype=float)
    top = float(mu.max())
    mu = mu[mu > 0.0] / top
    x = float(x) / top
    if x <= 0.0:
        return 1.0
    w = 0.5 * x

    def phase_and_amplitude(u):
        return 0.5 * np.sum(np.arctan(mu * u)), 1.0 / (u * math.exp(0.25 * np.sum(np.log1p((mu * u) ** 2))))

    def whole(u):
        if u == 0.0:  # the limit u -> 0
            return 0.5 * float(mu.sum()) - w
        phase, amplitude = phase_and_amplitude(u)
        return math.sin(phase - w * u) * amplitude

    def sin_part(u):
        phase, amplitude = phase_and_amplitude(u)
        return math.sin(phase) * amplitude

    def cos_part(u):
        phase, amplitude = phase_and_amplitude(u)
        return math.cos(phase) * amplitude

    def quad(f, lo, hi, **weight):
        return integrate.quad(f, lo, hi, limit=2000, epsabs=1e-13, full_output=1, **weight)[0]

    def fourier(lo, hi):
        return quad(sin_part, lo, hi, weight="cos", wvar=w) - quad(cos_part, lo, hi, weight="sin", wvar=w)

    period = 2.0 * math.pi / w
    edges = [min(1.0, period)]
    while edges[-1] < max(1.0, period):
        edges.append(min(2.0 * edges[-1], max(1.0, period)))
    integral = (quad(whole, 0.0, edges[0]) + sum(fourier(lo, hi) for lo, hi in zip(edges, edges[1:]))
                + fourier(edges[-1], math.inf))
    return min(max(0.5 + integral / math.pi, 0.0), 1.0)
