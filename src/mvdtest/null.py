"""Null-distribution approximation, subsampling variance, and the test itself.

Under the null the scaled statistic (n+m) * stat converges to a weighted sum
of independent chi-square(1) variables scaled by 1/(rho(1-rho)).  The weights
are estimated from the spectrum of H/n (covariance statistic) or of the
centered Gram matrix K~_X/n (mean statistic).  Because the estimated spectrum
systematically misses the true variance at finite n, the law is rescaled: a
subsampling estimate v_sub of Var[(n+m) * stat], inflated by (1 + tau),
fixes the second moment through the affine correction W' = xi * S + c while
the first moment is kept at the spectrum's own mean.
"""

import math
import os
import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import (KINDS, _block_terms, _check_kind, _check_kinds, _combine_terms, _h_matrix,
                          _raw_statistics, _shift)
from .kernels import as_sample, center_gram, gram

# Variance-inflation defaults keyed by the subsample fraction k/n.  These are
# through-origin regression slopes of exact against subsampled variances,
# minus one; see simulate.variance_table for how such slopes are produced.
TAU_TABLE = {
    "mvd": {1 / 4: 0.69348, 1 / 6: 0.34798, 1 / 8: 0.30928},
    "mmd": {1 / 4: 0.21990, 1 / 6: 0.10951, 1 / 8: 0.11643},
}

# Cap on scalars drawn per block when sampling the null law, so large draw
# counts stay in bounded memory.  Blocking does not change the values: the
# underlying normal stream is consumed in the same order either way.
_BLOCK_SCALARS = 1 << 22

# Cap on Gram entries gathered per chunk of subsampling iterations.  It is
# much smaller than _BLOCK_SCALARS on purpose: the gathered blocks sit on top
# of the n x n Gram matrix, and at 2^22 scalars (32 MB) they would dominate
# the memory of a 200-row study, which needs under 80 MB in all.
_CHUNK_SCALARS = 1 << 18

# Scalars one subsampling iteration must gather before its chunks are spread
# over several threads (k = l >= 74).  Below it an iteration's index draws,
# which hold the GIL (about 50 us), are a large share of its work, so a second
# lane gains little end to end while its buffers and thread raise the peak
# memory of a 200-row study by about 5%; CHANGES.md has the measurements.
_LANE_SCALARS = 1 << 14

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier, used to seed many streams at once.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _check_seed(seed):
    """seed as a Python int; the RNG streams [seed, ...] need a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _pcg64_states(prefix, indices):
    """bit_generator.state of default_rng([*prefix, i]) for each i in indices, in one pass.

    This replays SeedSequence (entropy hashed into a pool of four uint32
    words, then generate_state(4, uint64)) on uint32 arrays with one element
    per index, and PCG64's set-seed on Python ints.  The prefix entries must
    be non-negative ints and every index below 2^32.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    if indices.size and int(indices.max()) > _MASK32:
        raise ValueError("stream indices must be below 2^32")
    words = []  # each prefix int as little-endian uint32 words; 0 is one word
    for value in prefix:
        value = int(value)
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                break
    entropy = [np.full(indices.shape, word, dtype=np.uint32) for word in words]
    entropy.append(indices.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    with np.errstate(over="ignore"):
        zero = np.zeros(indices.shape, dtype=np.uint32)
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const = _INIT_B
        out = []
        for i in range(8):
            value = pool[i % 4] ^ np.uint32(hash_const)
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * np.uint32(hash_const)
            out.append((value ^ (value >> np.uint32(_XSHIFT))).astype(np.uint64))
    # generate_state(4, uint64): pairs of uint32 words, low word first.
    seeds = [(out[2 * i] | (out[2 * i + 1] << np.uint64(32))).tolist() for i in range(4)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*seeds):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _stream_states(prefix, count):
    """bit_generator.state of the streams default_rng([*prefix, i]) for i in range(count).

    Assigning states[i] to a PCG64's state gives exactly the stream
    default_rng([*prefix, i]) would, at a fraction of the cost of building
    it.  Stream 0 is checked against default_rng once per call, so a numpy
    whose seeding differs fails loudly instead of drawing other numbers.
    """
    states = _pcg64_states(prefix, np.arange(count))
    if states[0] != np.random.default_rng([*prefix, 0]).bit_generator.state:
        raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from the "
                           "SeedSequence and PCG64 algorithms mvdtest replays")
    return states


def default_tau(kind, fraction):
    """Default variance inflation tau for a subsample fraction k/n.

    The table has entries at k/n = 1/4, 1/6, 1/8; the nearest one is used.
    """
    _check_kind(kind)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"subsample fraction must be in (0, 1), got {fraction!r}")
    table = TAU_TABLE[kind]
    nearest = min(table, key=lambda r: abs(r - fraction))
    return table[nearest]


@dataclass(frozen=True)
class SubsamplingPlan:
    """How to subsample the first sample when estimating the null variance.

    Rows [0, n1) and [n1, n) form two disjoint pools.  Every iteration draws
    k rows from the first pool and l from the second, both without
    replacement, and treats them as a fresh two-sample problem.  Iteration i
    uses the RNG stream default_rng([seed, 0, i]), so results are independent
    of evaluation order; seed must be a non-negative integer.
    """

    n1: int
    k: int
    l: int
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n1", "k", "l", "iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # Stored as a Python int, so sizes and scales never wrap in numpy arithmetic.
            object.__setattr__(self, name, int(value))
        if self.k < 2 or self.l < 2:
            raise ValueError(f"subsample sizes must be >= 2, got k={self.k}, l={self.l}")
        if self.k > self.n1:
            raise ValueError(f"k={self.k} exceeds the first pool (n1={self.n1})")
        if self.iterations < 2:
            raise ValueError(f"need at least 2 iterations, got {self.iterations}")
        _check_seed(self.seed)

    def validate(self, n):
        """Check the plan is feasible for a sample with n rows."""
        if self.n1 >= n:
            raise ValueError(f"split point n1={self.n1} leaves no second pool for n={n}")
        if self.l > n - self.n1:
            raise ValueError(f"l={self.l} exceeds the second pool (n - n1 = {n - self.n1})")

    @classmethod
    def for_sample(cls, n, divisor=8, iterations=1000, seed=0):
        """Default plan for n >= 4 rows: split at n//2, subsample sizes max(2, n//divisor)."""
        if n < 4:
            raise ValueError(f"x needs at least 4 rows for the default subsampling plan, got {n}")
        size = max(2, n // divisor)
        return cls(n1=n // 2, k=size, l=size, iterations=iterations, seed=seed)


@dataclass(frozen=True)
class SpectralWeights:
    """Estimated weights of the limiting weighted chi-square null law.

    lambdas holds the eigenvalues of source/n sorted descending, with the one
    structurally forced zero removed (length n-1) and any numerically negative
    leftovers clamped to zero.  trace is the retained sum; clipped_count and
    clipped_mass record what the clamp removed.
    """

    lambdas: np.ndarray = field(repr=False)
    trace: float
    clipped_count: int
    clipped_mass: float


def spectral_weights(source, n):
    """Estimate null-law weights from the spectrum of source / n.

    source is the n x n matrix whose spectrum carries the null law: H for the
    covariance statistic, the centered Gram matrix K~_X for the mean
    statistic.  Both annihilate the all-ones vector, so exactly one zero
    eigenvalue is structural and is dropped; remaining negatives can only be
    round-off from the eigensolver and are clamped to zero.

    source must be symmetric to within 1e-8 of its largest magnitude.  It is
    left unchanged: the weights come from one private copy, scaled in place.
    """
    a = np.array(source, dtype=float)
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError(f"source must be {n} x {n}, got shape {a.shape}")
    if np.isfinite(a).all() and a.size:
        scale = max(float(a.max()), -float(a.min()))
        if not _is_symmetric(a, 1e-8 * max(scale, 1e-300)):
            raise ValueError("source matrix is not symmetric")
    return _spectral_weights(a, n)


def _is_symmetric(a, atol):
    """np.allclose(a, a.T, rtol=0, atol=atol) for a finite square a, in bands of rows.

    Each band holds at most about _CHUNK_SCALARS entries, so the check needs
    no n x n temporary.
    """
    rows = max(1, _CHUNK_SCALARS // a.shape[0])
    for start in range(0, a.shape[0], rows):
        band = slice(start, start + rows)
        if not (np.abs(a[band] - a[:, band].T) <= atol).all():
            return False
    return True


def _spectral_weights(a, n):
    """spectral_weights of a matrix a the caller owns, without the symmetry check.

    a is divided by n in place.  A matrix built inside the package is
    symmetric up to round-off, which can exceed the public check's tolerance
    when the kernel is nearly constant (tiny sigma).  eigvalsh reads only the
    lower triangle, so the round-off in the upper one cannot change the
    weights.
    """
    if not np.isfinite(a).all():
        raise ValueError("source matrix has non-finite entries: the kernel values "
                         "overflowed float64; lower KernelSpec.log_scale")
    a /= n
    eigs = np.linalg.eigvalsh(a)  # ascending
    eigs = eigs[1:]  # drop the structural zero (the smallest eigenvalue)
    negative = eigs < 0.0
    lambdas = np.where(negative, 0.0, eigs)[::-1]
    return SpectralWeights(
        lambdas=np.ascontiguousarray(lambdas),
        trace=float(lambdas.sum()),
        clipped_count=int(negative.sum()),
        clipped_mass=float(-eigs[negative].sum()),
    )


def sample_weighted_chisq(w, rho, j, seed=0):
    """Draw j variates of S = (1/(rho(1-rho))) * sum_l lambda_l Z_l^2.

    Z are i.i.d. standard normal; draws are deterministic given the seed and
    independent of the internal block size.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")
    j = int(j)
    if j < 1:
        raise ValueError(f"need at least one draw, got j={j}")
    return _weighted_chisq_draws([np.asarray(w.lambdas, dtype=float)], rho, j, seed)[0]


def _weighted_chisq_draws(lams, rho, j, seed):
    """sample_weighted_chisq for several weight vectors of one length, from one stream.

    Each block of normals Z is drawn into one reused buffer and squared once;
    every weight vector then takes its own product with Z^2, so its draws are
    exactly those sample_weighted_chisq gives it alone.  A vector of zeros
    gets zeros.
    """
    outs = [np.zeros(j) for _ in lams]
    live = [(out, lam) for out, lam in zip(outs, lams) if lam.any()]
    if not live:
        return outs
    size = live[0][1].size
    rng = np.random.default_rng(seed)
    denom = rho * (1.0 - rho)
    rows = max(1, _BLOCK_SCALARS // size)
    block = np.empty((min(rows, j), size))
    for start in range(0, j, rows):
        stop = min(j, start + rows)
        zz = rng.standard_normal(out=block[:stop - start])
        np.multiply(zz, zz, out=zz)
        for out, lam in live:
            out[start:stop] = zz @ lam / denom
    return outs


def subsample_variance(x, spec, kind, plan, m):
    """Subsampling estimate of Var[(n + m) * statistic] under the null.

    Each iteration treats k rows from the first pool and l from the second as
    a two-sample problem and records (k + l) * statistic.  The unbiased
    variance of those values is rescaled to the full sizes (n, m) of the
    actual test by (n+m)^4/(n^2 m^2) * k^2 l^2/(k+l)^4; m is the size of the
    companion sample the test will be run against.

    The full Gram matrix of x is computed once and subsample Gram blocks are
    taken as submatrices, which gives identical values to rebuilding them
    from the raw rows.  Iteration i draws its rows from the stream
    default_rng([plan.seed, 0, i]), so the rows it uses do not depend on
    evaluation order.  All streams are seeded in one vectorized pass, and each
    lane resets one Generator of its own to an iteration's state; stream 0 is
    checked against default_rng on every call, and a mismatch (a numpy that
    seeds differently) raises RuntimeError.
    The iterations are evaluated in chunks: one gather per block type copies
    a chunk's blocks into stacked (b, k, k), (b, l, l) and (b, k, l) arrays,
    and one vectorized pass reduces them to b statistics.  A chunk holds at
    most about 2^18 gathered scalars (2 MB), or one iteration if a single
    one needs more, so memory stays bounded per lane whatever the iteration
    count.  When one iteration gathers at least 2^14 scalars (k = l >= 74),
    the chunks are shared out over one lane (a thread with its own index
    buffers) per available CPU; each chunk keeps its boundaries, its streams
    and its slice of the output, so the result is bit-identical to a run on
    one lane.
    """
    _check_kind(kind)
    x = as_sample(x, "x")
    m = int(m)
    if m < 2:
        raise ValueError(f"companion sample size must be >= 2, got m={m}")
    plan.validate(x.shape[0])
    return _subsample_variance(gram(x, x, spec), (kind,), plan, m)[0]


def _worker_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _subsample_variance(k_full, kinds, plan, m):
    """subsample_variance of each kind in kinds, from the n x n Gram block of x.

    All kinds share each chunk's index sets and gathered blocks.  Lane 0 runs
    in the calling thread and any further lanes on a thread pool; each lane
    takes the next chunk not yet started until none is left.
    """
    n = k_full.shape[0]
    k, l = plan.k, plan.l
    raw = {kind: np.empty(plan.iterations) for kind in kinds}
    per_iteration = k * k + l * l + k * l
    chunk = max(1, _CHUNK_SCALARS // per_iteration)
    starts = range(0, plan.iterations, chunk)
    workers = min(_worker_count(), len(starts)) if per_iteration >= _LANE_SCALARS else 1
    todo = iter(starts)
    lock = threading.Lock()
    # A take from flat row-major indices gathers the same entries as
    # k_full[rows[:, :, None], cols[:, None, :]], about 1.5x faster at n=2000.
    flat = k_full.ravel()

    states = _stream_states((plan.seed, 0), plan.iterations)

    def lane():
        most = min(chunk, plan.iterations)
        one = np.empty((most, k), dtype=np.intp)
        two = np.empty((most, l), dtype=np.intp)
        index = np.empty(most * max(k, l) ** 2, dtype=np.intp)
        # Gather outputs allocated once: fresh ones per chunk can be trimmed
        # from the heap and faulted in again every time.
        blocks_x, blocks_y, blocks_xy = (np.empty((most, r, c)) for r, c in ((k, k), (l, l), (k, l)))
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)

        def gather(rows, cols, out):
            idx = index[:rows.size * cols.shape[1]].reshape(*rows.shape, cols.shape[1])
            np.add((rows * n)[:, :, None], cols[:, None, :], out=idx)
            # The indices lie in [0, n^2) by construction.  mode="raise" would
            # route out through a temporary copy, about 0.45 s CPU per 1000
            # iterations at n = 2000.
            return flat.take(idx, out=out[:len(rows)], mode="clip")

        try:
            while True:
                with lock:
                    start = next(todo, None)
                if start is None:
                    return
                stop = min(start + chunk, plan.iterations)
                for row, i in enumerate(range(start, stop)):
                    bits.state = states[i]
                    one[row] = rng.choice(plan.n1, size=k, replace=False)
                    two[row] = rng.choice(n - plan.n1, size=l, replace=False)
                b = stop - start
                two[:b] += plan.n1
                values = _raw_statistics(kinds, gather(one[:b], one[:b], blocks_x),
                                         gather(two[:b], two[:b], blocks_y),
                                         gather(one[:b], two[:b], blocks_xy))
                for kind in kinds:
                    raw[kind][start:stop] = values[kind]
        except BaseException:
            with lock:  # the other lanes take no further chunk
                for _ in todo:
                    pass
            raise

    if workers == 1:
        lane()
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(lane) for _ in range(workers - 1)]
            lane()
            for future in futures:
                future.result()
    scale = ((n + m) ** 4 / (n**2 * m**2)) * ((k * l) ** 2 / (k + l) ** 4)
    return tuple(float(((k + l) * np.maximum(raw[kind], 0.0)).var(ddof=1) * scale) for kind in kinds)


@dataclass(frozen=True)
class NullApprox:
    """Moment-corrected null law W' = xi * S + c.

    S is the weighted chi-square law defined by weights and rho; xi and c are
    chosen so W' keeps the spectrum's mean while its variance becomes
    (1 + tau) * v_sub.  draws_j is the Monte Carlo sample count used when a
    critical value is requested.
    """

    weights: SpectralWeights
    rho: float
    tau: float
    v_sub: float
    xi: float
    c: float
    draws_j: int = 10000

    @property
    def uncorrected_mean(self):
        """Mean of the raw spectrum law S (and of W', by construction)."""
        return self.weights.trace / (self.rho * (1.0 - self.rho))

    @property
    def uncorrected_variance(self):
        """Variance of the raw spectrum law S."""
        lam = self.weights.lambdas
        return 2.0 * float(lam @ lam) / (self.rho * (1.0 - self.rho)) ** 2

    @property
    def mean(self):
        """Mean of W'."""
        return self.xi * self.uncorrected_mean + self.c

    @property
    def variance(self):
        """Variance of W'."""
        return self.xi**2 * self.uncorrected_variance


def fit_wprime(w, rho, v_sub, tau, draws_j=10000):
    """Fit the affine correction W' = xi * S + c by moment matching.

    With mu_S and V_S the mean and variance of the spectrum law S, the two
    conditions  E[W'] = mu_S  and  Var[W'] = (1 + tau) * v_sub  solve in
    closed form to xi = sqrt((1 + tau) v_sub / V_S) and c = (1 - xi) mu_S.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")
    if v_sub < 0.0:
        raise ValueError(f"v_sub must be >= 0, got {v_sub!r}")
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    lam = w.lambdas
    denom = rho * (1.0 - rho)
    mu_s = w.trace / denom
    v_s = 2.0 * float(lam @ lam) / denom**2
    if v_s == 0.0:
        if v_sub > 0.0:
            raise ValueError("degenerate spectrum: all weights are zero but v_sub > 0")
        xi, c = 1.0, 0.0
    else:
        xi = math.sqrt((1.0 + tau) * v_sub / v_s)
        c = (1.0 - xi) * mu_s
    return NullApprox(weights=w, rho=rho, tau=float(tau), v_sub=float(v_sub), xi=xi, c=c, draws_j=int(draws_j))


def _quantile_rank(j, alpha):
    """1-based rank of the empirical (1 - alpha)-quantile among j draws."""
    return min(max(math.ceil(j * (1.0 - alpha)), 1), j)


def _quantile(values, alpha):
    """Empirical (1 - alpha)-quantile: the value at ascending rank ceil(J (1 - alpha))."""
    r = _quantile_rank(values.size, alpha)
    return float(np.partition(values, r - 1)[r - 1])


def _check_level(alpha, draws, name):
    """Check alpha is in (0, 1) and that `name`=draws can resolve its quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if draws < math.ceil(1.0 / alpha):
        raise ValueError(f"{name}={draws} is too small for alpha={alpha}")


def critical_value(na, alpha, seed=0):
    """Empirical (1 - alpha)-quantile of the corrected null law W'.

    Draws na.draws_j samples of W' = xi * S + c and returns the value at
    ascending rank ceil(J (1 - alpha)).  Deterministic given the seed; a test
    run with seed=s draws from the stream [s, 1], so seed=[s, 1] reproduces
    its critical value (seed=s does not).
    """
    _check_level(alpha, na.draws_j, "draws_j")
    s = sample_weighted_chisq(na.weights, na.rho, na.draws_j, seed)
    return _quantile(na.xi * s + na.c, alpha)


@dataclass(frozen=True)
class TestReport:
    """Everything one two-sample test run produced.

    statistic is the scaled value (n + m) * stat, the quantity the null law
    describes.  critical_value comes from the corrected law W'; the
    uncorrected one from the raw spectrum law is reported alongside for
    comparison.  reject is statistic > critical_value.
    """

    kind: str
    n: int
    m: int
    statistic: float
    critical_value: float
    critical_value_uncorrected: float
    p_value: float
    reject: bool
    alpha: float
    tau: float
    v_sub: float
    xi: float
    c: float
    draws: int
    seed: int
    plan: SubsamplingPlan
    weights_trace: float
    clipped_count: int
    clipped_mass: float
    statistic_clamped: bool


def run_test(x, y, spec, kind="mvd", plan=None, tau=None, alpha=0.05, draws=10000, seed=0):
    """Run one two-sample test end to end and return a TestReport.

    The same as run_tests(..., kinds=(kind,))[0]; see run_tests.
    """
    return run_tests(x, y, spec, kinds=(kind,), plan=plan, tau=tau, alpha=alpha, draws=draws, seed=seed)[0]


def run_tests(x, y, spec, kinds=KINDS, plan=None, tau=None, alpha=0.05, draws=10000, seed=0):
    """Run the two-sample test of each kind in kinds; return their TestReports in that order.

    Steps per kind: compute the scaled statistic; estimate the null spectrum
    from the first sample; estimate the null variance by subsampling; fit the
    corrected law W'; compare the statistic with the empirical
    (1 - alpha)-quantile of W'.  The p-value is the fraction of the same J
    draws that reach the statistic, and the uncorrected critical value is the
    same quantile of the raw spectrum law (identical draws, xi = 1, c = 0).

    tau may be None (the built-in table keyed by (kind, k/n)), a number
    applied to every kind, or a mapping {kind: tau} (missing kinds use the
    table).  plan defaults to SubsamplingPlan.for_sample(n, seed=seed).  The
    chi-square draws use the RNG stream (seed, 1), disjoint from the
    subsampling streams (seed, 0, i).

    The kinds share the Gram blocks, the subsample index sets and gathers,
    and the normals of the (seed, 1) stream, so each report is exactly the
    one a run for its kind alone gives.

    Memory: the Gram blocks are built and reduced one at a time, and the
    spectra's sources are scaled in place, so with m <= n a test holds at
    most three n x n float64 arrays at once (about 24 n^2 bytes: 96 MB at
    n = 2000, 2.4 GB at n = 10000), counting the copy eigvalsh makes.  The
    chi-square draws reuse one block of at most 2^22 normals (32 MB).
    """
    kinds = _check_kinds(kinds)
    if isinstance(tau, Mapping):
        for key in tau:
            _check_kind(key)
    draws = int(draws)
    _check_level(alpha, draws, "draws")
    seed = _check_seed(seed)
    x = as_sample(x, "x")
    y = as_sample(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"samples have different dimensions: {x.shape[1]} vs {y.shape[1]}")
    n, m = x.shape[0], y.shape[0]
    if plan is None:
        plan = SubsamplingPlan.for_sample(n, seed=seed)
    plan.validate(n)

    # Each raw block is reduced to its statistic terms in place (as
    # _raw_statistics would) and dropped before the next one is built.
    k_xy = gram(x, y, spec)
    shift = _shift(k_xy)
    t_xy = _block_terms(kinds, k_xy, shift)
    del k_xy
    k_x = gram(x, x, spec)
    kc_x = center_gram(k_x)  # feeds both spectra, bit for bit as GramSet.kc_x would
    v_subs = _subsample_variance(k_x, kinds, plan, m)
    t_x = _block_terms(kinds, k_x, shift)
    del k_x
    raws = _combine_terms(kinds, t_x, _block_terms(kinds, gram(y, y, spec), shift), t_xy, n, m)
    # H is built from kc_x before kc_x is scaled in place for the mmd spectrum
    # and dropped, so at most H, kc_x and eigvalsh's copy coexist.
    weights = {}
    h = _h_matrix(kc_x) if "mvd" in kinds else None
    if "mmd" in kinds:
        weights["mmd"] = _spectral_weights(kc_x, n)
    del kc_x
    if h is not None:
        weights["mvd"] = _spectral_weights(h, n)
    del h
    rho = n / (n + m)
    fits = []
    for kind, v_sub in zip(kinds, v_subs):
        w = weights[kind]
        kind_tau = tau.get(kind) if isinstance(tau, Mapping) else tau
        if kind_tau is None:
            kind_tau = default_tau(kind, plan.k / n)
        fits.append((kind, raws[kind], fit_wprime(w, rho, v_sub, float(kind_tau), draws_j=draws)))

    draws_s = _weighted_chisq_draws([na.weights.lambdas for _, _, na in fits], rho, draws, [seed, 1])
    reports = []
    for (kind, raw, na), s in zip(fits, draws_s):
        stat = (n + m) * max(float(raw), 0.0)
        wprime = na.xi * s + na.c
        crit = _quantile(wprime, alpha)
        crit_uncorrected = _quantile(s, alpha)
        for name, value in (("statistic", stat), ("v_sub", na.v_sub), ("xi", na.xi), ("c", na.c),
                            ("critical_value", crit), ("critical_value_uncorrected", crit_uncorrected)):
            if not math.isfinite(value):
                raise ValueError(f"{name} is {value}: the kernel values overflowed float64; "
                                 f"lower KernelSpec.log_scale (got {spec.log_scale})")
        reports.append(TestReport(
            kind=kind,
            n=n,
            m=m,
            statistic=stat,
            critical_value=crit,
            critical_value_uncorrected=crit_uncorrected,
            p_value=float(np.mean(wprime >= stat)),
            reject=bool(stat > crit),
            alpha=float(alpha),
            tau=na.tau,
            v_sub=na.v_sub,
            xi=na.xi,
            c=na.c,
            draws=draws,
            seed=seed,
            plan=plan,
            weights_trace=na.weights.trace,
            clipped_count=na.weights.clipped_count,
            clipped_mass=na.weights.clipped_mass,
            statistic_clamped=bool(raw < 0.0),
        ))
    return reports
