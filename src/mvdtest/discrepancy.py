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


def _raw_statistics(kinds, k_x, k_y, k_xy):
    """Unclamped statistics {kind: value} of raw Gram blocks (..., k, k), (..., l, l), (..., k, l).

    Leading axes index independent problems.  mmd takes the block sums, and
    mvd then double-centers the blocks in place, rows then columns, and takes
    their squared Frobenius norms.  The raw-sums identity for the centered
    norms is not used: it cancels when the centered values are small.
    """
    k, l = k_xy.shape[-2:]
    blocks = (k_x, k_y, k_xy)
    terms = {}
    if "mmd" in kinds:
        terms["mmd"] = [b.sum(axis=(-2, -1)) for b in blocks]
    if "mvd" in kinds:
        for b in blocks:
            b -= b.mean(axis=-1, keepdims=True)
            b -= b.mean(axis=-2, keepdims=True)
        terms["mvd"] = [np.einsum("...ij,...ij->...", b, b) for b in blocks]
    return {kind: t[0] / k**2 - 2.0 * t[2] / (k * l) + t[1] / l**2 for kind, t in terms.items()}


def statistic(g, kind):
    """Evaluate one discrepancy statistic ("mvd" or "mmd") on copies of a GramSet's raw blocks."""
    _check_kind(kind)
    raw = _raw_statistics((kind,), g.k_x.copy(), g.k_y.copy(), g.k_xy.copy())[kind]
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
    return _h_matrix(g.kc_x)


def _h_matrix(kc_x):
    """h_matrix from the centered first-sample Gram block alone."""
    return center_gram(kc_x * kc_x)
