"""Two-sample discrepancy statistics computed from Gram matrices.

Two statistics share the same plumbing:

* ``mvd`` — squared Frobenius distance between the empirical covariance
  operators of the two samples in feature space, computed from the centered
  Gram blocks.
* ``mmd`` — squared distance between the empirical mean embeddings (biased
  V-statistic), computed from the raw Gram blocks.

Both are squared norms, so tiny negative values produced by floating-point
cancellation are clamped to zero.
"""

import numpy as np

from .kernels import center_gram

KINDS = ("mvd", "mmd")


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown statistic kind {kind!r}; choose from {KINDS}")


def _check_kinds(kinds):
    """Validate a sequence of distinct statistic kinds; return it as a tuple."""
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError(f"need at least one statistic kind from {KINDS}")
    for kind in kinds:
        _check_kind(kind)
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"statistic kinds must be distinct, got {kinds}")
    return kinds


def _mvd_raw(g):
    """Covariance discrepancy from centered Gram blocks, before clamping.

    The trace of a product of centered Gram blocks equals the squared
    Frobenius norm of the corresponding block, so each term is one einsum.
    """
    n, m = g.n, g.m
    a_xx = np.einsum("ij,ij->", g.kc_x, g.kc_x)
    a_xy = np.einsum("ij,ij->", g.kc_xy, g.kc_xy)
    a_yy = np.einsum("ij,ij->", g.kc_y, g.kc_y)
    return a_xx / n**2 - 2.0 * a_xy / (n * m) + a_yy / m**2


def _mmd_raw(g):
    """Mean-embedding discrepancy from raw Gram blocks, before clamping."""
    n, m = g.n, g.m
    return g.k_x.sum() / n**2 - 2.0 * g.k_xy.sum() / (n * m) + g.k_y.sum() / m**2


def statistic(g, kind):
    """Evaluate one discrepancy statistic ("mvd" or "mmd") on a GramSet."""
    _check_kind(kind)
    raw = _mvd_raw(g) if kind == "mvd" else _mmd_raw(g)
    return max(float(raw), 0.0)


def mvd_statistic(g):
    """Squared distance between the empirical covariance operators.

    Computed as (1/n^2)||K~_X||_F^2 - (2/nm)||K~_XY||_F^2 + (1/m^2)||K~_Y||_F^2
    from the centered Gram blocks of g; clamped to be >= 0.
    """
    return statistic(g, "mvd")


def mmd_statistic(g):
    """Squared distance between the empirical mean embeddings.

    The biased V-statistic form: (1/n^2) sum K_X + (1/m^2) sum K_Y
    - (2/nm) sum K_XY over the raw (uncentered) Gram blocks; clamped >= 0.
    """
    return statistic(g, "mmd")


def h_matrix(g):
    """Doubly-centered Hadamard square of the centered first-sample Gram block.

    H = P_n (K~_X o K~_X) P_n.  Its rows sum to zero, so H / n carries one
    structural zero eigenvalue; the remaining spectrum estimates the weights
    of the covariance statistic's null law.
    """
    return center_gram(g.kc_x * g.kc_x)
