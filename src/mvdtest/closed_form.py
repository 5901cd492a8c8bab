"""Analytic population discrepancies between Gaussians under the Gaussian kernel.

These are the exact values the Gram-matrix estimators converge to, used as
independent oracles in tests and for power analysis.  The public closed forms
fix the reference distribution P = N(0, I_d) and take Q = N(mean, cov); fully
general pairs of Gaussians are reachable through the inner-product helpers at
the bottom of the module.  Each discrepancy is the squared distance between
two operators, ||P||^2 + ||Q||^2 - 2<P, Q>, and has one closed form,
assembled from one inner product per operator: each squared norm is the
operator's inner product with itself.  Every term of those inner products is
one Gaussian integral, taken through its log (_log_gauss), so no determinant
is formed as a product that can overflow at large d.  Under the kernel
e^C k a term is scaled by e^(pC) inside its log, before exp, so a value that
is out of float64's range at C = 0 but not at C keeps its digits.  The isotropic
functions, for Q = N(t * ones, s * I_d), are that form on
GaussianSpec.isotropic(t, s, d).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _check_log_scale, _check_scaled, _check_sigma, _is_finite_real, _is_integer


def _check_dim(d):
    """Refuse a dimension d that is not an integer >= 1."""
    if not _is_integer(d) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """A d-variate normal N(mean, cov): a finite mean and a finite, symmetric positive-definite cov."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got ndim={mean.ndim}")
        _check_dim(mean.size)
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if not np.isfinite(cov).all():
            raise ValueError("cov must be finite")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError("cov is not symmetric")
        if np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise ValueError("cov is not positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)

    @property
    def dim(self):
        return self.mean.size

    @classmethod
    def standard(cls, d):
        """N(0, I_d)."""
        _check_dim(d)
        return cls(np.zeros(d), np.eye(d))

    @classmethod
    def isotropic(cls, t, s, d):
        """N(t * ones, s * I_d), refusing a variance scale s that is not a finite real > 0 (a bool is not one)."""
        if not (_is_finite_real(s) and s > 0.0):
            raise ValueError(f"variance scale s must be > 0 and finite, got {s!r}")
        _check_dim(d)
        return cls(np.full(d, float(t)), float(s) * np.eye(d))


def _standard(d, sigma, kinds, c):
    """P = N(0, I_d) and {kind: |P|^2} under the kernel e^c k for each kind's operator, shared by every q.

    Every closed form enters here before it evaluates a point, so this is
    where the kernel scale c and the bandwidth sigma are checked.
    """
    _check_log_scale(c)
    _check_sigma(sigma)
    p = GaussianSpec.standard(d)
    return p, {kind: _inner(kind, p, p, sigma, c) for kind in kinds}


def _sq_distance(kind, p, p_norms, q, sigma, c):
    """|P|^2 + |q|^2 - 2<P, q> for kind's operator under the kernel e^c k, floored at 0.

    That is the distance at c = 0 times e^(pc) (p = 2 for mvd, 1 for mmd).
    A value that overflows float64 raises a ValueError that names log_scale.
    """
    value = p_norms[kind] + _inner(kind, q, q, sigma, c) - 2.0 * _inner(kind, p, q, sigma, c)
    return max(_check_scaled(value, c), 0.0)


def _inner(kind, p, q, sigma, c):
    """kind's inner product <p, q> under the kernel e^c k; inf where a term overflows float64."""
    try:
        return _OPERATORS[kind](p, q, sigma, c)
    except OverflowError:  # math.exp and float ** raise where float64 overflows
        return math.inf


def mmd_sq_gaussian(q, sigma, c=0.0):
    """Squared mean-embedding distance |P|^2 + |q|^2 - 2<P, q> between P = N(0, I_d) and q, times e^c."""
    p, p_norms = _standard(q.dim, sigma, ("mmd",), c)
    return _sq_distance("mmd", p, p_norms, q, sigma, c)


def mvd_sq_gaussian(q, sigma, c=0.0):
    """Squared covariance-operator distance |P|^2 + |q|^2 - 2<P, q> between P = N(0, I_d) and q, times e^{2c}."""
    p, p_norms = _standard(q.dim, sigma, ("mvd",), c)
    return _sq_distance("mvd", p, p_norms, q, sigma, c)


def mmd_sq_isotropic(t, s, d, sigma, c=0.0):
    """mmd_sq_gaussian on q = N(t * ones, s * I_d)."""
    return mmd_sq_gaussian(GaussianSpec.isotropic(t, s, d), sigma, c)


def mvd_sq_isotropic(t, s, d, sigma, c=0.0):
    """mvd_sq_gaussian on q = N(t * ones, s * I_d)."""
    return mvd_sq_gaussian(GaussianSpec.isotropic(t, s, d), sigma, c)


def mvd_mmd_curves(t_grid, s_grid, d, sigma, c=0.0):
    """Tabulate both closed forms over a (t, s) grid.

    Returns an array with one row per grid point, columns (t, s, mmd_sq,
    mvd_sq), t varying slowest.  Useful for plotting how the two
    discrepancies order as the kernel scale c changes.
    """
    p, p_norms = _standard(d, sigma, ("mmd", "mvd"), c)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if not (np.isfinite(t_grid).all() and np.isfinite(s_grid).all()):
        raise ValueError("grids must be finite")
    rows = np.empty((t_grid.size * s_grid.size, 4))
    i = 0
    for t in t_grid:
        for s in s_grid:
            q = GaussianSpec.isotropic(t, s, d)
            rows[i] = (t, s, _sq_distance("mmd", p, p_norms, q, sigma, c),
                       _sq_distance("mvd", p, p_norms, q, sigma, c))
            i += 1
    return rows


def _log_gauss(m_mat, delta, rate):
    """-1/2 log|M| - rate delta' M^{-1} delta: the log of each Gaussian integral below."""
    _, logdet = np.linalg.slogdet(m_mat)
    return -0.5 * logdet - rate * float(delta @ np.linalg.solve(m_mat, delta))


def _check_pair(p, q, sigma):
    """Refuse a bad bandwidth, then two Gaussians of different dimensions."""
    _check_sigma(sigma)
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def mean_embedding_inner(p, q, sigma):
    """<mu_k(p), mu_k(q)> for two Gaussians under the Gaussian kernel.

    Equals |M|^{-1/2} exp(-sigma delta' M^{-1} delta) with
    M = I + 2 sigma (cov_p + cov_q) and delta = mean_p - mean_q.
    """
    _check_pair(p, q, sigma)
    return _mean_inner(p, q, sigma, 0.0)


def _mean_inner(p, q, sigma, c):
    """mean_embedding_inner under the kernel e^c k: c is added to the term's log."""
    return math.exp(c + _log_gauss(np.eye(p.dim) + 2.0 * sigma * (p.cov + q.cov), p.mean - q.mean, sigma))


def mean_embedding_norm_sq(q, sigma):
    """||mu_k(q)||^2 = <mu_k(q), mu_k(q)> = |I + 4 sigma cov|^{-1/2} for a Gaussian q."""
    return mean_embedding_inner(q, q, sigma)


def _one_two_term(p, q, sigma, c):
    """e^c E[k(X, Y) k(X, Y')] with one draw X ~ p and two independent Y, Y' ~ q.

    Integrating Y and Y' first gives the squared conditional mean embedding;
    integrating X then yields
    |A|^{-1/2} |A + 4sC_p|^{-1/2} exp(-2s delta' (A + 4sC_p)^{-1} delta)
    with A = I + 2sC_q; c is added to its log.
    """
    a = np.eye(p.dim) + 2.0 * sigma * q.cov
    _, logdet_a = np.linalg.slogdet(a)
    return math.exp(c - 0.5 * logdet_a + _log_gauss(a + 4.0 * sigma * p.cov, p.mean - q.mean, 2.0 * sigma))


def cov_operator_inner(p, q, sigma):
    """<Sigma_k(p), Sigma_k(q)> (Hilbert-Schmidt) for two Gaussians.

    Expands as I1 - I2 - I3 + I4: the second-moment term E[k(X,Y)^2] (a mean
    embedding inner product at bandwidth 2 sigma), the two mixed terms with a
    repeated draw on one side, and the squared mean-embedding inner product.
    """
    _check_pair(p, q, sigma)
    return _cov_inner(p, q, sigma, 0.0)


def _cov_inner(p, q, sigma, c):
    """cov_operator_inner under the kernel e^c k: 2c is added to each term's log (c to I4's root)."""
    i1 = _mean_inner(p, q, 2.0 * sigma, 2.0 * c)
    i2 = _one_two_term(p, q, sigma, 2.0 * c)
    i3 = _one_two_term(q, p, sigma, 2.0 * c)
    i4 = _mean_inner(p, q, sigma, c) ** 2
    return i1 - i2 - i3 + i4


def cov_operator_norm_sq(p, sigma):
    """||Sigma_k(p)||^2 (Hilbert-Schmidt) for a Gaussian p."""
    return cov_operator_inner(p, p, sigma)


# Each kind's operator as its one inner product under the kernel e^c k,
# inner(p, q, sigma, c); a squared norm is inner(P, P, sigma, c).
_OPERATORS = {"mmd": _mean_inner, "mvd": _cov_inner}
