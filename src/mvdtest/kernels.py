"""Kernel evaluation, Gram-matrix construction, and double-centering."""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

KERNEL_FAMILIES = ("gaussian",)


def as_sample(values, name="sample"):
    """Validate and coerce one sample to a float64 matrix, rows = observations.

    1-D input is treated as n scalar observations (one column). Requires at
    least 2 rows (centering and subsampling both need that) and finite entries.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array of observations, got ndim={x.ndim}")
    if x.shape[0] < 2:
        raise ValueError(f"{name}: need at least 2 rows, got {x.shape[0]}")
    if x.shape[1] < 1:
        raise ValueError(f"{name}: need at least 1 column")
    if not np.isfinite(x).all():
        raise ValueError(f"{name}: contains non-finite entries")
    return np.ascontiguousarray(x)


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel: k'(x, y) = e^C * exp(-sigma * ||x - y||^2).

    Parameters
    ----------
    sigma : float
        Bandwidth, > 0.
    log_scale : float, optional
        C in k' = e^C * k; defaults to 0 (the unscaled kernel).
    family : str, optional
        Only "gaussian" is built in.
    """

    sigma: float
    log_scale: float = 0.0
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma!r}")
        if not np.isfinite(self.log_scale):
            raise ValueError(f"log_scale must be finite, got {self.log_scale!r}")


def kernel_eval(x, y, spec):
    """Evaluate the kernel on a single pair of d-vectors."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"point dimensions differ: {xv.shape[0]} vs {yv.shape[0]}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("kernel_eval: non-finite input")
    d2 = float(np.sum((xv - yv) ** 2))
    return float(np.exp(spec.log_scale - spec.sigma * d2))


def gram(x, y, spec, *, out=None):
    """Dense Gram block k(x_i, y_j) between two samples.

    out, if given, is a float64 len(x) x len(y) array that receives the block
    and is returned, so a caller in a loop can reuse one buffer.
    """
    # In place on the distances, bit-identical to exp(C - sigma * d2).
    k = cdist(x, y, "sqeuclidean", out=out)
    k *= -spec.sigma
    k += spec.log_scale
    return np.exp(k, out=k)


def center_gram(k):
    """Double-center a Gram block into a new array: K~ = P_n K P_m.

    Implemented as K - row means - column means + grand mean, which is the
    same projection without ever forming P_n (O(nm) time, one new n x m
    array).  k itself is left unchanged.
    """
    return _center(np.asarray(k, dtype=float))


def _center(k, out=None):
    """center_gram of k, written to out (a new array when out is None).

    The three means are taken before any entry is written, so out may be k
    itself.  The elementwise steps are those of k - row - col + mean, in that
    order, so the bits are too.
    """
    row = k.mean(axis=1, keepdims=True)
    col = k.mean(axis=0, keepdims=True)
    mean = k.mean()
    out = np.subtract(k, row, out=out)
    out -= col
    out += mean
    return out


@dataclass(frozen=True)
class GramSet:
    """Within- and cross-sample Gram matrices plus their centered versions.

    k_x is n x n, k_y is m x m, k_xy is n x m; kc_* are the double-centered
    counterparts (row and column sums ~ 0).
    """

    k_x: np.ndarray = field(repr=False)
    k_y: np.ndarray = field(repr=False)
    k_xy: np.ndarray = field(repr=False)
    kc_x: np.ndarray = field(repr=False)
    kc_y: np.ndarray = field(repr=False)
    kc_xy: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.k_x.shape[0]

    @property
    def m(self):
        return self.k_y.shape[0]


def gram_set_from_blocks(k_x, k_y, k_xy):
    """Assemble a GramSet from precomputed raw Gram blocks."""
    k_x = np.asarray(k_x, dtype=float)
    k_y = np.asarray(k_y, dtype=float)
    k_xy = np.asarray(k_xy, dtype=float)
    n, m = k_xy.shape
    if k_x.shape != (n, n) or k_y.shape != (m, m):
        raise ValueError("inconsistent Gram block shapes")
    return GramSet(
        k_x=k_x,
        k_y=k_y,
        k_xy=k_xy,
        kc_x=center_gram(k_x),
        kc_y=center_gram(k_y),
        kc_xy=center_gram(k_xy),
    )


def build_gram_set(x, y, spec):
    """Compute all six Gram matrices for two samples under one kernel."""
    x = as_sample(x, "x")
    y = as_sample(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"samples have different dimensions: {x.shape[1]} vs {y.shape[1]}")
    return gram_set_from_blocks(gram(x, x, spec), gram(y, y, spec), gram(x, y, spec))
