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

import dataclasses
import math
import numbers
import os
import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import (KINDS, _POWER, _block_terms, _check_kind, _check_kinds, _combine_terms, _raw_statistics,
                          _shift, h_matrix)
from .kernels import (_center, _check_integer, _is_finite_real, _is_integer, _rescale, as_sample, center_gram,
                      gram)

# Variance-inflation defaults keyed by the subsample fraction k/n.  These are
# through-origin regression slopes of exact against subsampled variances,
# minus one; see simulate.variance_table for how such slopes are produced.
TAU_TABLE = {
    "mvd": {1 / 4: 0.69348, 1 / 6: 0.34798, 1 / 8: 0.30928},
    "mmd": {1 / 4: 0.21990, 1 / 6: 0.10951, 1 / 8: 0.11643},
}

# Cap on scalars drawn per block when sampling the null law: 2^17 normals
# (1 MB).  Each block is drawn, squared and multiplied by every weight vector
# while it fits in a 2 MB L2 cache, and the draws never set a test's memory
# peak: with the default 10000 draws, a 2^22 block (32 MB) outweighed the two
# n x n arrays of a test below n ~ 1450.  The normal stream is consumed in
# the same order whatever the block size, but BLAS may sum zz @ lam in
# another order for another block shape, so a different cap can move draws
# by round-off (up to a few 1e-15 relative at 2000 weights).
_BLOCK_SCALARS = 1 << 17

# Cap on Gram entries, over its three blocks, per chunk of subsampling
# iterations (2 MB).  A lane takes the blocks in turn in one buffer of the
# largest one, which holds a block's flat indices and then the block gathered
# over them: at most about 0.7 MB while a chunk holds several iterations.  It
# sits on top of the n x n Gram matrix, so the cap keeps it a small share of a
# 200-row study's memory, while a chunk still spreads numpy's per-call cost
# over many iterations (139 at n = 200 with the default plan).
_CHUNK_SCALARS = 1 << 18

# Scalars one subsampling iteration must gather before its chunks are spread
# over several threads (k = l >= 74).  Below it an iteration's index draws,
# which hold the GIL (about 50 us), are a large share of its work, so a second
# lane gains little end to end while its buffer and thread raise the peak
# RSS of a 200-row study by about 1% (0.6 of 70.4 MB over three one-rep power
# tables of the Tier-1 cell on a 2-vCPU VM); CHANGES.md has the measurements.
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
    seed = _check_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_draw_seed(seed):
    """The seed of a public draw: a non-negative int, or a list or tuple of them such as [s, 1], as a list."""
    return [_check_seed(part) for part in seed] if isinstance(seed, (list, tuple)) else _check_seed(seed)


def _pcg64_states(prefix, indices):
    """The SeedSequence words of default_rng([*prefix, i]) for each i in indices, in one pass.

    Row j holds the four uint64 words generate_state(4, uint64) gives stream
    indices[j], which PCG64 takes as (state_hi, state_lo, seq_hi, seq_lo);
    _pcg64_state turns one row into the bit_generator.state dict.  A row is
    32 bytes, against about 470 for the dict.

    This replays SeedSequence (entropy hashed into a pool of four uint32
    words, then generate_state(4, uint64)) on uint32 arrays with one element
    per index.  The prefix entries must be non-negative ints and every index
    below 2^32.
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
    return np.stack([out[2 * i] | (out[2 * i + 1] << np.uint64(32)) for i in range(4)], axis=1)


def _pcg64_state(words):
    """The bit_generator.state dict of a fresh PCG64 seeded with these four SeedSequence words.

    This is PCG64's set-seed on Python ints: tolist() turns the row into
    them at once, faster than converting each numpy scalar.
    """
    state_hi, state_lo, seq_hi, seq_lo = words.tolist()
    inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _stream_states(prefix, count):
    """The SeedSequence words of the streams default_rng([*prefix, i]) for i in range(count).

    Assigning _pcg64_state(words[i]) to a PCG64's state gives exactly the
    stream default_rng([*prefix, i]) would, at a fraction of the cost of
    building it.  Stream 0 is checked against default_rng once per call, so
    a numpy whose seeding differs fails loudly instead of drawing other
    numbers.
    """
    words = _pcg64_states(prefix, np.arange(count))
    if _pcg64_state(words[0]) != np.random.default_rng([*prefix, 0]).bit_generator.state:
        raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from the "
                           "SeedSequence and PCG64 algorithms mvdtest replays")
    return words


def default_tau(kind, fraction):
    """Default variance inflation tau for a subsample fraction k/n.

    The table has entries at k/n = 1/4, 1/6, 1/8; the nearest one is used.
    """
    _check_kind(kind)
    if not (_is_finite_real(fraction) and 0.0 < fraction < 1.0):
        raise ValueError(f"subsample fraction must be in (0, 1), got {fraction!r}")
    table = TAU_TABLE[kind]
    nearest = min(table, key=lambda r: abs(r - fraction))
    return table[nearest]


def _check_iterations(iterations):
    """iterations as a Python int: a subsampled variance needs at least 2."""
    iterations = _check_integer(iterations, "iterations")
    if iterations < 2:
        raise ValueError(f"need at least 2 iterations, got {iterations}")
    return iterations


@dataclass(frozen=True)
class SubsamplingPlan:
    """How to subsample the first sample when estimating the null variance.

    Rows [0, n1) and [n1, n) form two disjoint pools.  Every iteration draws
    k rows from the first pool and l from the second, both without
    replacement, and treats them as a fresh two-sample problem.  The plan
    holds no seed: iteration i draws from the stream default_rng([seed, 0, i])
    of the seed the caller passes (run_tests' seed, subsample_variance's), so
    results are independent of evaluation order.
    """

    n1: int
    k: int
    l: int
    iterations: int = 1000

    def __post_init__(self):
        for name in ("n1", "k", "l"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        object.__setattr__(self, "iterations", _check_iterations(self.iterations))
        if self.k < 2 or self.l < 2:
            raise ValueError(f"subsample sizes must be >= 2, got k={self.k}, l={self.l}")
        if self.k > self.n1:
            raise ValueError(f"k={self.k} exceeds the first pool (n1={self.n1})")

    def validate(self, n):
        """Check the plan is feasible for a sample with n rows."""
        if self.n1 >= n:
            raise ValueError(f"split point n1={self.n1} leaves no second pool for n={n}")
        if self.l > n - self.n1:
            raise ValueError(f"l={self.l} exceeds the second pool (n - n1 = {n - self.n1})")

    @classmethod
    def for_sample(cls, n, divisor=8, iterations=1000):
        """Default plan for n >= 4 rows: split at n//2, subsample sizes max(2, n//divisor)."""
        n = _check_integer(n, "n")
        if n < 4:
            raise ValueError(f"x needs at least 4 rows for the default subsampling plan, got {n}")
        if not _is_integer(divisor) or divisor < 2:
            raise ValueError(f"divisor {divisor!r}: need an integer >= 2 (k = l = n // divisor)")
        size = max(2, n // divisor)
        return cls(n1=n // 2, k=size, l=size, iterations=iterations)


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

    source must be finite and symmetric to within 1e-8 of its largest
    magnitude.  It is left unchanged: the weights come from one private copy,
    scaled in place.
    """
    n = _check_integer(n, "n")
    a = np.array(source, dtype=float)
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError(f"source must be {n} x {n}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("source matrix has non-finite entries: the kernel values "
                         "overflowed float64; lower KernelSpec.log_scale")
    if a.size:
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
    weights.  a must be finite, as every matrix built at C = 0 is.
    """
    a /= n
    eigs = np.linalg.eigvalsh(a)  # ascending
    eigs = eigs[1:]  # drop the structural zero (the smallest eigenvalue)
    negative = eigs < 0.0
    lambdas = np.where(negative, 0.0, eigs)[::-1]
    return SpectralWeights(
        lambdas=np.ascontiguousarray(lambdas),
        trace=float(lambdas.sum()),
        clipped_count=int(negative.sum()),
        clipped_mass=0.0 - float(eigs[negative].sum()),  # +0.0, not -0.0, when nothing is clipped
    )


def _check_rho(rho):
    """Refuse a sample share rho = n / (n + m) that is not a real number in (0, 1)."""
    if not (_is_finite_real(rho) and 0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")


def sample_weighted_chisq(w, rho, j, seed=0):
    """Draw j variates of S = (1/(rho(1-rho))) * sum_l lambda_l Z_l^2.

    Z are i.i.d. standard normal; draws are deterministic given the seed, a
    non-negative int or a list or tuple of them (such as [s, 1]).  The
    internal block size fixes which normals each draw uses, but not the order
    in which BLAS sums its products, so it can move draws by round-off.
    """
    _check_rho(rho)
    j = _check_integer(j, "j")
    if j < 1:
        raise ValueError(f"need at least one draw, got j={j}")
    return _weighted_chisq_draws([np.asarray(w.lambdas, dtype=float)], rho, j, _check_draw_seed(seed))[0]


def _weighted_chisq_draws(lams, rho, j, seed):
    """sample_weighted_chisq for several weight vectors of one length, from one stream.

    Each block of normals Z is drawn into one reused buffer and squared once;
    every weight vector then takes its own product with Z^2, so its draws are
    exactly those sample_weighted_chisq gives it alone.  A vector of zeros,
    or an empty one, gets +0.0 draws.
    """
    outs = [np.empty(j) for _ in lams]
    size = lams[0].size
    rng = np.random.default_rng(seed)
    denom = rho * (1.0 - rho)
    rows = max(1, _BLOCK_SCALARS // max(size, 1))
    block = np.empty((min(rows, j), size))
    for start in range(0, j, rows):
        stop = min(j, start + rows)
        zz = rng.standard_normal(out=block[:stop - start])
        np.multiply(zz, zz, out=zz)
        for out, lam in zip(outs, lams):
            part = np.matmul(zz, lam, out=out[start:stop])
            part /= denom
    return outs


def subsample_variance(x, spec, kind, plan, m, seed=0):
    """Subsampling estimate of Var[(n + m) * statistic] under the null.

    Each iteration treats k rows from the first pool and l from the second as
    a two-sample problem and records (k + l) * statistic.  The unbiased
    variance of those values is rescaled to the full sizes (n, m) of the
    actual test by (n+m)^4/(n^2 m^2) * k^2 l^2/(k+l)^4; m is the size of the
    companion sample the test will be run against.

    It is computed at C = 0 and scaled by e^(2pC), C = spec.log_scale and p = 2
    for mvd, 1 for mmd; a scaled value that overflows, or a positive one that
    underflows to 0, raises a ValueError that names log_scale.
    The full Gram matrix of x is computed once and subsample Gram blocks are
    taken as submatrices, which gives identical values to rebuilding them
    from the raw rows.  Iteration i draws its rows from the stream
    default_rng([seed, 0, i]), seed a non-negative integer, so the rows it
    uses do not depend on evaluation order; these are the streams of a test
    run with the same seed.  All streams' SeedSequence words are computed in
    one vectorized pass, and a stream's state is built from its words when a
    lane resets to it; stream 0 is checked against default_rng on every
    call, and a mismatch (a numpy that seeds differently) raises
    RuntimeError.
    The iterations are evaluated in chunks of b iterations, about 2^18
    Gram entries over the three blocks (2 MB), or one iteration if a single
    one needs more.  A chunk's stacked (b, k, l), (b, k, k) and (b, l, l)
    blocks are gathered in turn into one buffer of b * max(k, l)^2 entries,
    each over flat indices written into that same buffer, and each reduced
    to b terms in one vectorized pass before the next is gathered.  The
    chunks run on _run_lanes, the seeded lane runner the exact replications
    of simulate.variance_table share.  When one iteration gathers at least
    2^14 scalars (k = l >= 74), they are shared out over one lane (a thread
    with its own Generator and buffer) per available CPU; each chunk keeps
    its boundaries, its streams and its slice of the output, so the result
    is bit-identical to a run on one lane.  The memory of a lane, and how
    many lanes fit beside the Gram matrix, is worked out in
    _subsample_variance.
    """
    _check_kind(kind)
    x = as_sample(x, "x")
    m = _check_integer(m, "m")
    if m < 2:
        raise ValueError(f"companion sample size must be >= 2, got m={m}")
    seed = _check_seed(seed)
    plan.validate(x.shape[0])
    v_sub = _subsample_variance(gram(x, x, dataclasses.replace(spec, log_scale=0.0)), (kind,), plan, m, seed)[0]
    return _scale_v_sub(v_sub, spec.log_scale, kind)


def _scale_v_sub(v_sub, log_scale, kind):
    """A v_sub computed at C = 0 scaled by e^(2pC), refusing a positive one that underflows to 0.

    A v_sub of 0 next to the xi fitted from the positive one would break
    xi^2 = (1 + tau) v_sub / V_S, so it is refused like any other scaled
    magnitude that leaves float64, with a ValueError that names log_scale.
    """
    scaled = _rescale(v_sub, log_scale, 2.0 * _POWER[kind])
    if scaled == 0.0 < v_sub:
        raise ValueError(f"log_scale={log_scale!r} is too small: the scaled {kind} v_sub underflowed "
                         "float64 to 0; raise KernelSpec.log_scale")
    return scaled


def _worker_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_lanes(prefix, count, chunk, workers, lane):
    """Run items [0, count) in chunks of chunk on min(workers, chunks) lanes.

    Item i draws from the stream default_rng([*prefix, i]).  The SeedSequence
    words of all streams are computed in one pass before any lane starts
    (see _stream_states), and each lane owns one Generator; stream(i) resets
    it to item i's stream, whose state it builds from those words only then,
    and returns it.  lane(stream) is called once per lane, so it can
    allocate the lane's buffers, and returns work(start, stop), which
    handles the items [start, stop).  Lane 0 runs in the calling thread and
    the others on one thread pool; each lane takes the next chunk not yet
    started until none is left.  As long as work writes only its own items'
    results, those do not depend on the lane count.  A failure in any lane
    stops every lane from taking a further chunk and is re-raised here.
    """
    states = _stream_states(prefix, count)
    starts = range(0, count, chunk)
    todo = iter(starts)
    lock = threading.Lock()

    def run():
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)

        def stream(i):
            bits.state = _pcg64_state(states[i])
            return rng

        try:
            work = lane(stream)
            while True:
                with lock:
                    start = next(todo, None)
                if start is None:
                    return
                work(start, min(start + chunk, count))
        except BaseException:
            with lock:  # the other lanes take no further chunk
                for _ in todo:
                    pass
            raise

    lanes = min(workers, len(starts))
    if lanes == 1:
        run()
    else:
        with ThreadPoolExecutor(lanes - 1) as pool:
            futures = [pool.submit(run) for _ in range(lanes - 1)]
            run()
            for future in futures:
                future.result()


def _subsample_variance(k_full, kinds, plan, m, seed):
    """subsample_variance of each kind in kinds, from the n x n Gram block of x.

    All kinds share each chunk's index sets and gathered blocks.  The chunks
    run on _run_lanes, on one lane per CPU above the _LANE_SCALARS gate and
    on the calling thread alone below it.  A lane holds one buffer of most *
    max(k, l)^2 float64 entries, most the iterations of a full chunk:
    _raw_statistics reduces each block before the next is gathered, so the
    cross block (gathered first, for the shift) and the two within-pool
    blocks take turns in it, and each block's flat indices are written into
    the same memory the take then overwrites with the block.  That is at
    most about 0.7 MB below k = l = 210 and 8 k^2 bytes from there on, so
    with k_full (8 n^2) and the default plan 4 lanes fit in 16 n^2 bytes
    wherever lanes start (n >= 592), L <= 64 lanes from n of about
    296 sqrt(L), and 64 lanes from k >= 210.
    """
    n = k_full.shape[0]
    k, l = plan.k, plan.l
    raw = {kind: np.empty(plan.iterations) for kind in kinds}
    per_iteration = k * k + l * l + k * l
    chunk = max(1, _CHUNK_SCALARS // per_iteration)
    # A take from flat row-major indices gathers the same entries as
    # k_full[rows[:, :, None], cols[:, None, :]], about 1.5x faster at n=2000.
    flat = k_full.ravel()

    def lane(stream):
        most = min(chunk, plan.iterations)
        one = np.empty((most, k), dtype=np.intp)
        two = np.empty((most, l), dtype=np.intp)
        # One buffer sized for the largest block, allocated once: fresh ones
        # per chunk can be trimmed from the heap and faulted in again every
        # time.  Its int64 view holds a block's flat indices and the take
        # writes the block over them: take reads each index before it writes
        # that slot, and both are 8 bytes wide.
        buffer = np.empty(most * max(k, l) ** 2)
        index = buffer.view(np.int64)

        def gather(rows, cols):
            shape = (*rows.shape, cols.shape[1])
            size = rows.size * cols.shape[1]
            idx = index[:size].reshape(shape)
            np.add((rows * n)[:, :, None], cols[:, None, :], out=idx)
            # The indices lie in [0, n^2) by construction.  mode="raise" would
            # route out through a temporary copy, about 0.45 s CPU per 1000
            # iterations at n = 2000.
            return flat.take(idx, out=buffer[:size].reshape(shape), mode="clip")

        def work(start, stop):
            for row, i in enumerate(range(start, stop)):
                rng = stream(i)
                one[row] = rng.choice(plan.n1, size=k, replace=False)
                two[row] = rng.choice(n - plan.n1, size=l, replace=False)
            b = stop - start
            two[:b] += plan.n1
            # _raw_statistics reduces each block before it draws the next, so
            # the three blocks take turns in the one gather buffer.
            pairs = ((one[:b], two[:b]), (one[:b], one[:b]), (two[:b], two[:b]))
            values = _raw_statistics(kinds, (gather(rows, cols) for rows, cols in pairs))
            for kind in kinds:
                raw[kind][start:stop] = values[kind]

        return work

    workers = _worker_count() if per_iteration >= _LANE_SCALARS else 1
    _run_lanes((seed, 0), plan.iterations, chunk, workers, lane)
    scale = ((n + m) ** 4 / (n**2 * m**2)) * ((k * l) ** 2 / (k + l) ** 4)
    return tuple(float(((k + l) * np.maximum(raw[kind], 0.0)).var(ddof=1) * scale) for kind in kinds)


@dataclass(frozen=True)
class NullApprox:
    """Moment-corrected null law W' = xi * S + c.

    S is the weighted chi-square law defined by weights and rho; xi and c are
    chosen so W' keeps the spectrum's mean while its variance becomes
    (1 + tau) * v_sub.  The law holds no draw count: critical_value takes it.
    """

    weights: SpectralWeights
    rho: float
    tau: float
    v_sub: float
    xi: float
    c: float


def _law_moments(w, rho):
    """Mean and variance of the spectrum law S = (1/(rho(1-rho))) * sum_l lambda_l Z_l^2."""
    denom = rho * (1.0 - rho)
    lam = w.lambdas
    return w.trace / denom, 2.0 * float(lam @ lam) / denom**2


def fit_wprime(w, rho, v_sub, tau):
    """Fit the affine correction W' = xi * S + c by moment matching.

    With mu_S and V_S the mean and variance of the spectrum law S, the two
    conditions  E[W'] = mu_S  and  Var[W'] = (1 + tau) * v_sub  solve in
    closed form to xi = sqrt((1 + tau) v_sub / V_S) and c = (1 - xi) mu_S.
    The fit draws nothing; critical_value draws from the law it returns.
    """
    _check_rho(rho)
    if not (_is_finite_real(v_sub) and v_sub >= 0.0):
        raise ValueError(f"v_sub must be >= 0 and finite, got {v_sub!r}")
    tau = _check_tau(tau)
    mu_s, v_s = _law_moments(w, rho)
    if v_s == 0.0:
        if v_sub > 0.0:
            raise ValueError("degenerate spectrum: all weights are zero but v_sub > 0")
        xi, c = 1.0, 0.0
    else:
        xi = math.sqrt((1.0 + tau) * v_sub / v_s)
        c = (1.0 - xi) * mu_s
    return NullApprox(weights=w, rho=rho, tau=tau, v_sub=float(v_sub), xi=xi, c=c)


def _check_tau(tau):
    """tau as a float; refuse a bool, a non-real, and a value that is negative, nan or infinite.

    float() would run "0.3" as 0.3 and True as 1.0.
    """
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
        raise ValueError(f"tau must be a real number, got {tau!r}")
    if not (_is_finite_real(tau) and tau >= 0.0):  # an int beyond float64 is not finite
        raise ValueError(f"tau must be >= 0 and finite, got {tau!r}")
    return float(tau)


def _resolve_taus(tau, kinds):
    """Each kind's tau as {kind: float}, None where the built-in table applies.

    tau may be None (the table for every kind), a number applied to every
    kind, or a mapping {kind: tau} whose missing kinds and None values use the
    table.  Every key and value is checked, so a misspelt kind is refused
    rather than left on its default.
    """
    taus = dict(tau) if isinstance(tau, Mapping) else dict.fromkeys(kinds, tau)
    for key, value in taus.items():
        _check_kind(key)
        if value is not None:
            taus[key] = _check_tau(value)
    return {kind: taus.get(kind) for kind in kinds}


def _quantile(values, alpha):
    """Empirical (1 - alpha)-quantile: the value at ascending rank ceil(J (1 - alpha)).

    _check_draws has put alpha in (0, 1), so that rank is already in [1, J].
    """
    r = math.ceil(values.size * (1.0 - alpha))
    return float(np.partition(values, r - 1)[r - 1])


def _check_draws(draws, alpha):
    """draws as a Python int, checked to resolve the (1 - alpha)-quantile for an alpha in (0, 1)."""
    draws = _check_integer(draws, "draws")
    if not (_is_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if draws < math.ceil(1.0 / alpha):
        raise ValueError(f"draws={draws} is too small for alpha={alpha}")
    return draws


def _null_tails(laws, statistics, alpha, draws, seed):
    """(crit of W', crit of S, p-value) of each fitted law against its statistic.

    The laws share one rho and one weight count.  J = draws variates of each
    law's S are drawn from the one stream seed (_weighted_chisq_draws); each
    critical value is the (1 - alpha)-quantile of W' = xi * S + c or of S
    itself, and the p-value is the share of the W' draws that reach the
    statistic.  This is the one place the null law turns into a decision:
    run_tests and critical_value both call it.
    """
    lams = [np.asarray(na.weights.lambdas, dtype=float) for na in laws]
    tails = []
    for na, stat, s in zip(laws, statistics, _weighted_chisq_draws(lams, laws[0].rho, draws, seed)):
        wprime = na.xi * s + na.c
        tails.append((_quantile(wprime, alpha), _quantile(s, alpha), float(np.mean(wprime >= stat))))
    return tails


def critical_value(na, alpha, seed=0, draws=10000):
    """Empirical (1 - alpha)-quantile of the corrected null law W'.

    Draws `draws` samples of W' = xi * S + c and returns the value at
    ascending rank ceil(J (1 - alpha)), J = draws, through _null_tails, the
    tail a test run takes.  Deterministic given the seed; a test run with
    seed=s and draws=J draws from the stream [s, 1], so seed=[s, 1], draws=J
    reproduces its critical value (seed=s does not).
    """
    draws = _check_draws(draws, alpha)
    _check_rho(na.rho)
    return _null_tails([na], [math.inf], alpha, draws, _check_draw_seed(seed))[0][0]


@dataclass(frozen=True)
class TestReport:
    """Everything one two-sample test run produced.

    statistic is the scaled value (n + m) * stat, the quantity the null law
    describes.  critical_value comes from the corrected law W'; the
    uncorrected one from the raw spectrum law is reported alongside for
    comparison.  reject is statistic > critical_value.

    The test runs at C = 0.  statistic, both critical values, c,
    weights_trace and clipped_mass are then scaled by e^(pC) (p = 2 for mvd,
    1 for mmd) and v_sub by e^(2pC); every other field keeps its bits for every C.
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
    All three come from _null_tails, the one tail critical_value also takes,
    on the stream [seed, 1]: critical_value(law, alpha, seed=[seed, 1],
    draws=draws) gives a report's critical value at C = 0.

    tau may be None (the built-in table keyed by (kind, k/n)), a number
    applied to every kind, or a mapping {kind: tau} (missing kinds use the
    table).  A tau that is a bool, a string or any other non-real is refused,
    as is one that is negative, nan or infinite.  plan defaults to
    SubsamplingPlan.for_sample(n).  seed is the run's one seed: the
    subsampling draws from the RNG streams (seed, 0, i), whatever the plan,
    and the chi-square draws from the disjoint stream (seed, 1).

    Every step runs at C = 0 and only the report's magnitudes carry C =
    spec.log_scale (see TestReport).  A scaled magnitude that overflows, a
    positive v_sub that underflows to 0, or a scaled statistic and critical
    value that underflow out of the order reject says, raise a ValueError
    that names log_scale; v_sub is checked before the spectra are taken.

    The kinds share the Gram blocks, the subsample index sets and gathers,
    and the normals of the (seed, 1) stream, so each report is exactly the
    one a run for its kind alone gives.

    Memory: the Gram blocks are built and reduced one at a time, the
    subsampling runs before K_X is centered, and the kinds are taken in the
    order asked, each dropping the centered K~_X once its spectrum's source
    (H for mvd, K~_X itself for mmd) is built.  So with m <= n a test holds
    at most two n x n float64 arrays at once (about 16 n^2 bytes: 64 MB at
    n = 2000, 1.6 GB at n = 10000), counting the copy eigvalsh makes.  For
    that, K~_X is not kept for a run of both kinds: the second kind rebuilds
    it, in the freed buffer.  While K_X is subsampled, each lane adds one
    buffer; _subsample_variance works out its size and how many lanes keep
    the two-array bound.  The chi-square draws run after those arrays are
    freed and refill one block of at most 2^17 normals (1 MB), so they
    never set the peak.
    """
    kinds = _check_kinds(kinds)
    taus = _resolve_taus(tau, kinds)
    draws = _check_draws(draws, alpha)
    seed = _check_seed(seed)
    x = as_sample(x, "x")
    y = as_sample(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"samples have different dimensions: {x.shape[1]} vs {y.shape[1]}")
    n, m = x.shape[0], y.shape[0]
    if plan is None:
        plan = SubsamplingPlan.for_sample(n)
    plan.validate(n)
    # Every step runs at C = 0; log_scale scales only the report's magnitudes.
    log_scale = spec.log_scale
    spec = dataclasses.replace(spec, log_scale=0.0)

    # Each raw block is reduced to its statistic terms in place (as
    # _raw_statistics would) and dropped before the next one is built.
    k_xy = gram(x, y, spec)
    shift = _shift(k_xy)
    t_xy = _block_terms(kinds, k_xy, shift)
    del k_xy
    k_x = gram(x, x, spec)
    v_subs = _subsample_variance(k_x, kinds, plan, m, seed)
    scaled_v_subs = [_scale_v_sub(v_sub, log_scale, kind) for kind, v_sub in zip(kinds, v_subs)]
    kc_x = center_gram(k_x)  # the first spectrum's source, bit for bit as GramSet.kc_x would be
    t_x = _block_terms(kinds, k_x, shift)
    del k_x
    raws = _combine_terms(kinds, t_x, _block_terms(kinds, gram(y, y, spec), shift), t_xy, n, m)
    # Each kind takes its spectrum's source from kc_x and drops kc_x, so the
    # spectrum needs only that source and eigvalsh's copy.  A second kind
    # rebuilds kc_x in the buffer the first spectrum freed: _center takes its
    # means before it writes, so the bits are center_gram's.
    rho = n / (n + m)
    fits = []
    for kind, v_sub in zip(kinds, v_subs):
        if kc_x is None:
            kc_x = _center(gram(x, x, spec, out=source), out=source)
        source = h_matrix(kc_x) if kind == "mvd" else kc_x
        kc_x = None
        kind_tau = default_tau(kind, plan.k / n) if taus[kind] is None else taus[kind]
        fits.append(fit_wprime(_spectral_weights(source, n), rho, v_sub, kind_tau))
    del source

    stats = [(n + m) * max(float(raws[kind]), 0.0) for kind in kinds]
    tails = _null_tails(fits, stats, alpha, draws, [seed, 1])
    reports = []
    for kind, na, stat, (crit, crit_s, p_value), scaled_v_sub in zip(kinds, fits, stats, tails, scaled_v_subs):
        reject = bool(stat > crit)
        power = _POWER[kind]
        scaled_stat = _rescale(stat, log_scale, power)
        scaled_crit = _rescale(crit, log_scale, power)
        if (scaled_stat > scaled_crit) != reject:
            raise ValueError(f"log_scale={log_scale!r} is too small: the scaled statistic and critical "
                             "value underflowed float64 and no longer order as the test decided; "
                             "raise KernelSpec.log_scale")
        reports.append(TestReport(
            kind=kind,
            n=n,
            m=m,
            statistic=scaled_stat,
            critical_value=scaled_crit,
            critical_value_uncorrected=_rescale(crit_s, log_scale, power),
            p_value=p_value,
            reject=reject,
            alpha=float(alpha),
            tau=na.tau,
            v_sub=scaled_v_sub,
            xi=na.xi,
            c=_rescale(na.c, log_scale, power),
            draws=draws,
            seed=seed,
            plan=plan,
            weights_trace=_rescale(na.weights.trace, log_scale, power),
            clipped_count=na.weights.clipped_count,
            clipped_mass=_rescale(na.weights.clipped_mass, log_scale, power),
            statistic_clamped=bool(raws[kind] < 0.0),
        ))
    return reports
