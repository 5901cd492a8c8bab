"""Monte Carlo harness: samplers, variance tables, slope calibration, power tables.

The samplers draw only the laws the tables use: X ~ N(0, I_d), and Y from the
same law, a uniform law or a centered exponential law (see DistributionSpec).

Every experiment is deterministic given its seed: replication r of cell c in
scenario s derives its RNG streams from the integer key (seed, c, s, r, ...),
so results do not depend on evaluation order and rerunning a configuration
reproduces it exactly.  That is what lets variance_table run its exact
replications on null._run_lanes and still return the rows of a serial run.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .closed_form import _check_dim
from .discrepancy import KINDS, _check_kinds, _raw_statistics
from .kernels import KernelSpec, _check_distinct, _check_integer, _check_sigma, _is_integer, gram
from .null import (SubsamplingPlan, _check_draw_seed, _check_draws, _check_iterations, _check_seed, _resolve_taus,
                   _run_lanes, _subsample_variance, _worker_count, run_tests)

# Named bandwidth presets: sigma = d ** -exponent.
SIGMA_RULES = {"d^-3/4": 0.75, "d^-7/8": 0.875, "d^-1": 1.0, "d^-2": 2.0}

# The columns of every variance_table and type1_power_table row, in order.
_COLUMNS = ("table", "sigma_rule", "sigma", "d", "n", "m", "kind", "estimate",
            "scenario", "divisor", "k", "l", "reps", "value", "se")

# Each sampling family: draw(rng, shape) -> an array of i.i.d. coordinates.
_SAMPLERS = {
    "std_normal": lambda rng, shape: rng.standard_normal(shape),
    "uniform_unit": lambda rng, shape: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape),
    "centered_exponential": lambda rng, shape: rng.exponential(1.0, size=shape) - 1.0,
}

# The family each alternative of type1_power_table draws Y from.
_ALTERNATIVES = {"uniform": "uniform_unit", "exponential": "centered_exponential"}


def sigma_from_rule(rule, d):
    """Resolve a bandwidth rule name (or literal value) to a number.

    "auto" means d^-3/4; the other presets are listed in SIGMA_RULES; any
    numeric string (or number) is taken at face value.
    """
    if isinstance(rule, (numbers.Real, np.bool_)):
        value = rule  # _check_sigma refuses a bool, numpy's too
    else:
        name = "d^-3/4" if rule == "auto" else rule
        if name in SIGMA_RULES:
            _check_dim(d)
            return float(d) ** -SIGMA_RULES[name]
        try:
            value = float(name)
        except (TypeError, ValueError):
            raise ValueError(f"unknown sigma rule {rule!r}; presets: auto, {', '.join(SIGMA_RULES)}") from None
    _check_sigma(value)
    return float(value)


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution for the harness: dim coordinates drawn i.i.d. from one family.

    The families are std_normal (N(0, 1)), uniform_unit (U(-sqrt(3), sqrt(3)))
    and centered_exponential (Exp(1) - 1); each has mean 0 and variance 1 per
    coordinate.
    """

    family: str
    dim: int

    def __post_init__(self):
        if self.family not in _SAMPLERS:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(_SAMPLERS)}")
        _check_dim(self.dim)

    @classmethod
    def std_normal(cls, d):
        return cls(family="std_normal", dim=d)


def sample(dist, n, seed=0):
    """Draw n i.i.d. rows from a DistributionSpec.  Deterministic given seed."""
    n = _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"need n >= 1 rows, got {n}")
    return _SAMPLERS[dist.family](np.random.default_rng(_check_draw_seed(seed)), (n, dist.dim))


@dataclass(frozen=True)
class ExperimentResult:
    """A table of Monte Carlo estimates plus the configuration that made it.

    rows is a tuple of flat dicts (one estimate per row, with its standard
    error where one is defined); config echoes every effective parameter so
    the result can be reproduced from the result alone.
    """

    config: dict
    rows: tuple


def _row(**fields):
    """One table row: every column of _COLUMNS in order, None where fields has no value."""
    return {col: fields.get(col) for col in _COLUMNS}


def _variance_se(values):
    """Standard error of the unbiased sample variance of i.i.d. values."""
    r = values.size
    v = values.var(ddof=1)
    m4 = np.mean((values - values.mean()) ** 4)
    return math.sqrt(max(m4 - v**2 * (r - 3) / (r - 1), 0.0) / r)


def _derived_seed(*key):
    """Collapse an integer key tuple into one int seed (for subsampling and test seeds)."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _check_cells(cells, divisors, iterations):
    """Each cell (sigma_rule, d, n, m) checked and resolved before any replication runs.

    A cell becomes (rule, d, n, m, spec, plans): its kernel and its subsampling
    plan for each divisor.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one cell")
    resolved = []
    for ci, cell in enumerate(cells):
        try:
            rule, d, n, m = cell
        except (TypeError, ValueError):
            raise ValueError(f"cell {ci} {cell!r}: need the 4 items (sigma_rule, d, n, m)") from None
        if not all(map(_is_integer, (d, n, m))) or d < 1 or n < 4 or m < 2:
            raise ValueError(f"cell {ci} {tuple(cell)}: need integers d >= 1, n >= 4 and m >= 2")
        spec = KernelSpec(sigma=sigma_from_rule(rule, d))
        plans = {div: SubsamplingPlan.for_sample(n, divisor=div, iterations=iterations) for div in divisors}
        resolved.append((rule, d, n, m, spec, plans))
    return resolved


def _exact_scaled(kinds, spec, n, m, d, key, reps):
    """{kind: (n + m) * statistic of each of reps fresh draws X, Y ~ N(0, I_d)}.

    Replication rep draws from its own stream [*key, 0, rep].  The reps run
    one at a time on null._run_lanes, one lane per available CPU, each rep
    filling its own entry; so the arrays equal the serial loop's bit for bit.
    Each lane holds one Gram buffer of max(n, m)^2 scalars, which takes the
    rep's three blocks in turn.
    """
    scaled = {kind: np.empty(reps) for kind in kinds}

    def lane(stream):
        # One Gram buffer per lane, refilled by every block of every rep:
        # _raw_statistics reduces each block before it draws the next, and
        # fresh blocks per rep can make the allocator hand pages back and
        # fault them in again, at a cost that depends on the allocator's state.
        buffer = np.empty(max(n, m) ** 2)

        def blocks(x, y):
            for a, b in ((x, y), (x, x), (y, y)):
                yield gram(a, b, spec, out=buffer[:len(a) * len(b)].reshape(len(a), len(b)))

        def work(start, stop):
            for rep in range(start, stop):
                rng = stream(rep)
                x, y = rng.standard_normal((n, d)), rng.standard_normal((m, d))
                raws = _raw_statistics(kinds, blocks(x, y))
                for kind in kinds:
                    scaled[kind][rep] = (n + m) * max(float(raws[kind]), 0.0)

        return work

    _run_lanes((*key, 0), reps, 1, _worker_count(), lane)
    return scaled


def variance_table(cells, kinds=KINDS, reps=2000, divisors=(4, 6, 8), iterations=1000, seed=0):
    """Simulated exact vs subsampled variance of the scaled statistic under P = Q.

    cells is a list of (sigma_rule, d, n, m).  For each cell the exact column
    is the unbiased variance of (n+m) * statistic over `reps` fresh draws of
    X, Y ~ N(0, I_d); each divisor contributes one subsampling estimate with
    k = l = n // divisor on a fresh X.  Through-origin slopes of exact
    against subsampled values across cells are appended per (kind, divisor) —
    slope minus one is the tau calibration the test's defaults use.  The
    exact replications run on one lane per available CPU; each has its own
    stream, so the rows equal those of a serial run bit for bit.
    """
    iterations = _check_iterations(iterations)
    # One pass over divisors, which may be a one-shot iterable; a bare string
    # stays whole for _check_distinct to refuse.
    divisors = divisors if isinstance(divisors, str) else tuple(divisors)
    # Each divisor is checked, in every cell's plans, before repeats are.
    cells = _check_cells(cells, divisors, iterations)
    divisors = _check_distinct(divisors, "divisors", (4,))
    kinds = _check_kinds(kinds)
    seed = _check_seed(seed)
    reps = _check_integer(reps, "reps")
    if reps < 2:
        raise ValueError(f"need reps >= 2 for a variance, got {reps}")
    rows = []
    exact = {}
    sub = {}
    for ci, (rule, d, n, m, spec, plans) in enumerate(cells):
        scaled = _exact_scaled(kinds, spec, n, m, d, (seed, ci), reps)
        for kind in kinds:
            exact[ci, kind] = float(scaled[kind].var(ddof=1))
            rows.append(_row(table="variance", sigma_rule=rule, sigma=spec.sigma, d=d, n=n, m=m, kind=kind,
                             estimate="exact_variance", reps=reps, value=exact[ci, kind],
                             se=_variance_se(scaled[kind])))
        for div in divisors:
            plan = plans[div]
            x = np.random.default_rng([seed, ci, 2, div]).standard_normal((n, d))
            v_subs = _subsample_variance(gram(x, x, spec), kinds, plan, m, _derived_seed(seed, ci, 1, div))
            for kind, v_sub in zip(kinds, v_subs):
                sub[ci, div, kind] = v_sub
                rows.append(_row(table="variance", sigma_rule=rule, sigma=spec.sigma, d=d, n=n, m=m, kind=kind,
                                 estimate="subsample_variance", divisor=div, k=plan.k, l=plan.l,
                                 reps=iterations, value=v_sub))
    for kind in kinds:
        for div in divisors:
            pairs = [(sub[ci, div, kind], exact[ci, kind]) for ci in range(len(cells))]
            if not any(p[0] > 0 for p in pairs):
                continue
            rows.append(_row(table="variance", kind=kind, estimate="slope", divisor=div, reps=len(pairs),
                             value=slope_regression(pairs)))
    config = {
        "table": "variance", "cells": [list(c[:4]) for c in cells], "kinds": list(kinds),
        "reps": reps, "divisors": list(divisors), "iterations": iterations, "seed": seed,
    }
    return ExperimentResult(config=config, rows=tuple(rows))


def slope_regression(pairs):
    """Least-squares slope of y on x through the origin: sum(xy) / sum(x^2)."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError("pairs must be a non-empty sequence of (x, y)")
    x, y = arr[:, 0], arr[:, 1]
    sxx = float(x @ x)
    if sxx == 0.0:
        raise ValueError("all predictor values are zero; slope is undefined")
    return float(x @ y) / sxx


def type1_power_table(cells, alternatives=tuple(_ALTERNATIVES), kinds=KINDS,
                      alpha=0.05, reps=500, divisor=8, iterations=1000, draws=10000,
                      tau=None, seed=0):
    """Rejection rates under the null and under alternatives, per cell and kind.

    cells is a list of (sigma_rule, d, n, m).  X is always N(0, I_d); the
    null scenario draws Y from the same law, each alternative from the named
    family.  Every replication runs the full test (subsampling plan with
    k = l = n // divisor, tau defaulting per kind unless given).  Rates come
    with the binomial standard error sqrt(p(1-p)/reps).

    tau may be None (per-kind defaults), a number (applied to every kind), or
    a dict {kind: tau}; it is checked as run_tests checks it, before the first
    replication.
    """
    iterations = _check_iterations(iterations)
    cells = _check_cells(cells, (divisor,), iterations)
    kinds = _check_kinds(kinds)
    _resolve_taus(tau, kinds)
    draws = _check_draws(draws, alpha)
    seed = _check_seed(seed)
    reps = _check_integer(reps, "reps")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    alternatives = _check_distinct(alternatives, "alternatives", ("uniform",))
    for name in alternatives:
        if name not in tuple(_ALTERNATIVES):  # by equality, so an unhashable name is refused here too
            raise ValueError(f"unknown alternative {name!r}; choose from {tuple(_ALTERNATIVES)}")
    scenarios = [("null", "std_normal")] + [(name, _ALTERNATIVES[name]) for name in alternatives]
    rows = []
    for ci, (rule, d, n, m, spec, plans) in enumerate(cells):
        plan = plans[divisor]
        x_spec = DistributionSpec.std_normal(d)
        for si, (scenario, family) in enumerate(scenarios):
            y_spec = DistributionSpec(family, d)
            rejected = {kind: 0 for kind in kinds}
            for rep in range(reps):
                x = sample(x_spec, n, seed=[seed, ci, si, rep, 0])
                y = sample(y_spec, m, seed=[seed, ci, si, rep, 1])
                for report in run_tests(x, y, spec, kinds=kinds, plan=plan, tau=tau, alpha=alpha, draws=draws,
                                        seed=_derived_seed(seed, ci, si, rep, 2)):
                    rejected[report.kind] += report.reject
            for kind in kinds:
                rate = rejected[kind] / reps
                rows.append(_row(table="power", sigma_rule=rule, sigma=spec.sigma, d=d, n=n, m=m, kind=kind,
                                 estimate="rejection_rate", scenario=scenario, divisor=divisor, k=plan.k,
                                 l=plan.l, reps=reps, value=rate, se=math.sqrt(rate * (1.0 - rate) / reps)))
    config = {
        "table": "power", "cells": [list(c[:4]) for c in cells], "alternatives": list(alternatives),
        "kinds": list(kinds), "alpha": float(alpha), "reps": reps, "divisor": int(divisor),
        "iterations": iterations, "draws": draws,
        "tau": None if tau is None else float(tau) if isinstance(tau, numbers.Real) else dict(tau),
        "seed": seed,
    }
    return ExperimentResult(config=config, rows=tuple(rows))
