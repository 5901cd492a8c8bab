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

    Leading axes index independent problems.  Both statistics are unchanged
    when one constant is subtracted from every kernel value, so all blocks are
    first shifted in place by the mean of k_xy's first row (of the first
    problem in a batch; callers batch only subsamples of one Gram matrix).
    Without the shift a nearly constant kernel (a wide bandwidth) cancels in
    the mmd sums, which then hold only to about 1e-16 * e^C and depend on the
    row order.  mmd sums the shifted blocks' row means; mvd subtracts those
    row means in place, then the column means, and takes the squared
    Frobenius norms.  The raw-sums identity for the centered norms is not
    used: it cancels when the centered values are small.
    """
    k, l = k_xy.shape[-2:]
    blocks = (k_x, k_y, k_xy)
    shift = k_xy[(0,) * (k_xy.ndim - 1)].mean()
    terms = {kind: [] for kind in kinds}
    for b in blocks:  # one block at a time, while it is in cache
        b -= shift
        row_means = b.mean(axis=-1, keepdims=True)
        if "mmd" in kinds:
            terms["mmd"].append(row_means.sum(axis=(-2, -1)) * b.shape[-1])
        if "mvd" in kinds:
            b -= row_means
            b -= b.mean(axis=-2, keepdims=True)
            terms["mvd"].append(np.einsum("...ij,...ij->...", b, b))
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
