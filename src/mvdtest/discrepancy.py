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

from .kernels import _center, _check_distinct

KINDS = ("mvd", "mmd")

# p in the factor e^(pC) each statistic, and its population value, takes
# under the kernel k' = e^C k.
_POWER = {"mvd": 2.0, "mmd": 1.0}


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown statistic kind {kind!r}; choose from {KINDS}")


def _check_kinds(kinds):
    """Validate a sequence of distinct statistic kinds; return it as a tuple."""
    kinds = _check_distinct(kinds, "statistic kinds", ("mvd",))
    if not kinds:
        raise ValueError(f"need at least one statistic kind from {KINDS}")
    for kind in kinds:
        _check_kind(kind)
    return kinds


def _raw_statistics(kinds, k_x, k_y, k_xy):
    """Unclamped statistics {kind: value} of raw Gram blocks (..., k, k), (..., l, l), (..., k, l).

    Leading axes index independent problems.  Both statistics are unchanged
    when one constant is subtracted from every kernel value, so all blocks are
    first shifted in place by _shift(k_xy) (of the first problem in a batch;
    callers batch only subsamples of one Gram matrix).  Without the shift a
    nearly constant kernel (a wide bandwidth) cancels in the mmd sums, which
    then hold only to about 1e-16 and depend on the row order.  Each
    block is reduced by _block_terms, one at a time while it is in cache, and
    _combine_terms weighs the three terms.
    """
    shift = _shift(k_xy)
    terms = [_block_terms(kinds, b, shift) for b in (k_x, k_y, k_xy)]
    return _combine_terms(kinds, *terms, *k_xy.shape[-2:])


def _shift(k_xy):
    """The constant every block is shifted by: the mean of k_xy's first row."""
    return k_xy[(0,) * (k_xy.ndim - 1)].mean()


def _block_terms(kinds, b, shift):
    """Each kind's term {kind: value} of one raw Gram block b (..., r, c); b is overwritten.

    b is shifted in place by shift.  mmd sums the shifted block's row means;
    mvd subtracts those row means in place, then the column means, and takes
    the squared Frobenius norm.  The raw-sums identity for the centered norm
    is not used: it cancels when the centered values are small.
    """
    b -= shift
    row_means = b.mean(axis=-1, keepdims=True)
    terms = {}
    if "mmd" in kinds:
        terms["mmd"] = row_means.sum(axis=(-2, -1)) * b.shape[-1]
    if "mvd" in kinds:
        b -= row_means
        b -= b.mean(axis=-2, keepdims=True)
        terms["mvd"] = np.einsum("...ij,...ij->...", b, b)
    return terms


def _combine_terms(kinds, t_x, t_y, t_xy, k, l):
    """Unclamped statistics {kind: value} from the block terms of k x k, l x l and k x l blocks."""
    return {kind: t_x[kind] / k**2 - 2.0 * t_xy[kind] / (k * l) + t_y[kind] / l**2 for kind in kinds}


def statistic(g, kind):
    """Evaluate one discrepancy statistic ("mvd" or "mmd") on copies of a GramSet's raw blocks."""
    _check_kind(kind)
    raw = _raw_statistics((kind,), g.k_x.copy(), g.k_y.copy(), g.k_xy.copy())[kind]
    return max(float(raw), 0.0)


def h_matrix(kc_x):
    """Doubly-centered Hadamard square of the centered first-sample Gram block kc_x (a GramSet's kc_x).

    H = P_n (K~_X o K~_X) P_n.  Its rows sum to zero, so H / n carries one
    structural zero eigenvalue; the remaining spectrum estimates the weights
    of the covariance statistic's null law.
    """
    shape = np.shape(kc_x)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"kc_x must be a square 2-d array (a GramSet's kc_x), got shape {shape}")
    kc_x = np.asarray(kc_x, dtype=float)
    sq = kc_x * kc_x
    return _center(sq, out=sq)
