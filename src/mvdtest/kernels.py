"""Gram-matrix construction and double-centering."""

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np
import scipy


def _load_sqeuclidean():
    """scipy's compiled cdist(x, y, "sqeuclidean", out=out), loaded without the rest of scipy.spatial.

    Importing scipy.spatial.distance runs scipy/spatial/__init__.py, which
    also loads scipy.linalg, scipy.sparse, qhull and the kd-trees.  The
    extension that holds the kernel, scipy.spatial._distance_pybind, needs
    none of them, so it is built here from its file alone; nothing is added
    to sys.modules.  Public cdist is np.asarray, two shape checks and a call
    to this same function, which raises the same ValueErrors itself, so
    every block keeps its bits.  The function is checked once, on points
    with small integer coordinates, whose squared distances are exact in any
    summation order.  Where the module or the function is missing, or the
    check fails (a scipy that renamed its private module, say), public cdist
    is returned instead: the same kernel at the old import cost.
    """
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.spatial._distance_pybind", [os.path.join(path, "spatial") for path in scipy.__path__])
    x = np.array([[0.0, 1.0, -2.0], [3.0, -1.0, 4.0]])
    y = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [-2.0, 5.0, 3.0]])
    out = np.empty((2, 3))
    try:  # a spec of None raises the AttributeError
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        kernel = module.cdist_sqeuclidean
        if kernel(x, y, out=out) is out and np.array_equal(out, ((x[:, None] - y) ** 2).sum(axis=2)):
            return kernel
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    from scipy.spatial.distance import cdist
    return functools.partial(cdist, metric="sqeuclidean")


_sqeuclidean = _load_sqeuclidean()


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


def _is_integer(value):
    """True for a Python or numpy integer; False for a bool, a float and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(value, name):
    """value as a Python int, so sizes never wrap in numpy arithmetic; refuse a non-integer loudly.

    int() would truncate 20.9 to 20 and run on silently.
    """
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_distinct(values, name, example):
    """values as a tuple; refuse a bare string, whose message suggests example instead, and a repeated value.

    Repeats are found by equality, not by hashing, so an unhashable value
    reaches the caller's own check instead of raising a TypeError here.
    """
    if isinstance(values, str):
        raise ValueError(f"{name} must be a sequence such as {example!r}, got the string {values!r}")
    values = tuple(values)
    if any(value in values[:i] for i, value in enumerate(values)):
        raise ValueError(f"{name} must be distinct, got {values}")
    return values


def _is_finite_real(value):
    """True for a finite Python or numpy real number; False for a bool, a string, None and anything else.

    An int too large for float64 counts as not finite.
    """
    try:  # a numpy bool is no numbers.Real
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _check_sigma(sigma):
    """Refuse a bandwidth that is not a positive finite real; a bool is not one, though True > 0."""
    if not (_is_finite_real(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")


def _check_log_scale(log_scale):
    """Refuse a kernel scale exponent C that is not a finite real; a bool is not one."""
    if not _is_finite_real(log_scale):
        raise ValueError(f"log_scale must be finite and real, got {log_scale!r}")


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel: k'(x, y) = e^C * exp(-sigma * ||x - y||^2).

    Parameters
    ----------
    sigma : float
        Bandwidth, > 0.
    log_scale : float, optional
        C in k' = e^C * k; defaults to 0 (the unscaled kernel).
    """

    sigma: float
    log_scale: float = 0.0

    def __post_init__(self):
        _check_sigma(self.sigma)
        _check_log_scale(self.log_scale)


def _rescale(value, log_scale, power):
    """value * e^(power * log_scale): a magnitude computed at C = 0 moved to C = log_scale.

    A discrepancy and everything measured in its units scale as e^C (mmd) or
    e^(2C) (mvd) under k' = e^C k; a variance of them as the square of that.
    log_scale must already be checked (_check_log_scale), as KernelSpec does.
    Raises a ValueError that names log_scale where the factor or the product
    is not finite (e^(2C) overflows float64 from C of about 355 on).
    """
    try:
        scaled = math.exp(power * log_scale) * float(value)
    except OverflowError:  # math.exp overflows by raising, never by returning inf
        scaled = math.inf
    return _check_scaled(scaled, log_scale)


def _check_scaled(scaled, log_scale):
    """scaled, a magnitude at C = log_scale; a ValueError that names log_scale where it is not finite."""
    if not math.isfinite(scaled):
        raise ValueError(f"log_scale={log_scale!r} is too large: the scaled value overflowed float64; "
                         "lower KernelSpec.log_scale")
    return scaled


def gram(x, y, spec, *, out=None):
    """Dense Gram block k(x_i, y_j) between two samples.

    out, if given, is a float64 len(x) x len(y) array that receives the block
    and is returned, so a caller in a loop can reuse one buffer.
    """
    # In place on the distances, bit-identical to exp(C - sigma * d2).  At
    # C = 0 the sum is skipped: -sigma * d2 <= 0, and exp(-0.0) = exp(0.0).
    k = _sqeuclidean(x, y, out=out)
    k *= -spec.sigma
    if spec.log_scale != 0:
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
    """Within- and cross-sample Gram matrices plus the centered first-sample block.

    k_x is n x n, k_y is m x m, k_xy is n x m; kc_x is k_x double-centered
    (row and column sums ~ 0), the block h_matrix reads.
    """

    k_x: np.ndarray = field(repr=False)
    k_y: np.ndarray = field(repr=False)
    k_xy: np.ndarray = field(repr=False)
    kc_x: np.ndarray = field(repr=False)

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
    )


def build_gram_set(x, y, spec):
    """Compute the three Gram blocks of two samples under one kernel, and center K_X."""
    x = as_sample(x, "x")
    y = as_sample(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"samples have different dimensions: {x.shape[1]} vs {y.shape[1]}")
    return gram_set_from_blocks(gram(x, x, spec), gram(y, y, spec), gram(x, y, spec))
