"""Span tracer for the benchmark's traced run.

The tracer wraps mvdtest's layer functions from outside the package: it swaps
every module attribute bound to a layer function (including names imported by
name, such as mvdtest.null.gram or mvdtest.cli.run_test) for a wrapper that
records a span, and swaps the originals back afterwards.  Spans are kept in
memory as (name, start, end, parent, op) and written out when the run ends;
a layer's self time is its span minus the part its child spans cover.

Some layers also record counts and a redundancy key at the call boundary: a
call is redundant when a call with the same key was already made in the same
op (the same operand contents and kernel for gram, the same sample contents
and plan for subsample_variance, the same seed, draw count and weight count
for sample_weighted_chisq).
"""

import contextlib
import csv
import functools
import gzip
import hashlib
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# Reported quantities of each traced layer, "<module>.<function>" under mvdtest.
QUANTITIES = {
    "null.subsample_variance": ("calls", "self_s", "iterations", "redundant_frac"),
    "null.sample_weighted_chisq": ("calls", "self_s", "normals", "redundant_frac"),
    "null.spectral_weights": ("calls", "self_s", "matrix_n"),
    "kernels.gram": ("calls", "self_s", "entries", "bytes", "redundant_frac"),
    "kernels.build_gram_set": ("calls", "self_s"),
    "kernels.center_gram": ("calls", "self_s", "entries"),
    "kernels.gram_set_from_blocks": ("calls", "self_s"),
    "discrepancy.statistic": ("calls", "self_s"),
    "discrepancy.h_matrix": ("calls", "self_s"),
    "null.fit_wprime": ("self_s",),
    "null.run_test": ("calls", "self_s"),
    "simulate.sample": ("self_s",),
    "simulate.type1_power_table": ("self_s",),
    "simulate.variance_table": ("self_s",),
    "cli.load_csv": ("self_s",),
    "cli.main": ("self_s",),
}

# Per-op means, except matrix_n (the largest order seen) and the fractions.
UNITS = {
    "calls": "count/op", "self_s": "s/op", "iterations": "count/op", "normals": "count/op",
    "entries": "count/op", "bytes": "B/op", "matrix_n": "rows", "redundant_frac": "fraction",
}

ROOT_SPAN = "op"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for an op's root span
    op: int
    counts: dict = None
    redundant: bool = None


def digest(array):
    """Content key of an array: shape, dtype and a hash of its bytes."""
    a = np.asarray(array)
    return a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _gram(args, kwargs):
    x, y, spec = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y"), _arg(args, kwargs, 2, "spec")
    entries = len(x) * len(y)
    return {"entries": entries, "bytes": 8 * entries}, (digest(x), digest(y), spec)


def _center_gram(args, kwargs):
    return {"entries": int(np.size(_arg(args, kwargs, 0, "k")))}, None


def _subsample_variance(args, kwargs):
    plan = _arg(args, kwargs, 3, "plan")
    return {"iterations": plan.iterations}, (digest(_arg(args, kwargs, 0, "x")), plan)


def _sample_weighted_chisq(args, kwargs):
    weights = len(_arg(args, kwargs, 0, "w").lambdas)
    j = int(_arg(args, kwargs, 2, "j"))
    seed = _freeze(_arg(args, kwargs, 3, "seed", 0))
    return {"normals": j * weights}, (seed, j, weights)


def _spectral_weights(args, kwargs):
    return {"matrix_n": int(_arg(args, kwargs, 1, "n"))}, None


COUNTERS = {
    "kernels.gram": _gram,
    "kernels.center_gram": _center_gram,
    "null.subsample_variance": _subsample_variance,
    "null.sample_weighted_chisq": _sample_weighted_chisq,
    "null.spectral_weights": _spectral_weights,
}


class Tracer:
    """Records spans of wrapped layer calls, grouped into ops."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._seen = defaultdict(set)

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def wrap(self, name, fn):
        """A wrapper of fn that records one span named `name` per call."""
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts, key, redundant = None, None, None
            if counter is not None:
                counts, key = counter(args, kwargs)
            if key is not None:
                seen = self._seen[name]
                redundant = key in seen
                seen.add(key)
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._op, counts, redundant)

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; redundancy keys are tracked within it."""
        self._op = op_id
        self._seen.clear()
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(ROOT_SPAN, start, end, parent, op_id)
            self._op = None

    @contextlib.contextmanager
    def installed(self, package, modules):
        """Swap layer functions for wrappers in every module; yield the absent layers.

        modules maps a submodule name ("kernels", ...) to the module; every
        attribute of those modules and of the package that is bound to a
        layer function is swapped, and restored on exit.  A layer whose
        function does not exist is skipped and reported as absent.
        """
        absent, swaps = [], []
        for layer in QUANTITIES:
            module_name, func_name = layer.split(".")
            original = getattr(modules.get(module_name), func_name, None)
            if original is None:
                absent.append(layer)
                continue
            wrapper = self.wrap(layer, original)
            for module in (package, *modules.values()):
                swaps += [(module, attr, value, wrapper)
                          for attr, value in vars(module).items() if value is original]
        for module, attr, _, wrapper in swaps:
            setattr(module, attr, wrapper)
        try:
            yield absent
        finally:
            for module, attr, original, _ in swaps:
                setattr(module, attr, original)

    def write(self, path):
        """Write all spans as gzipped CSV: name, start, end, parent, op, redundant."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "op", "redundant"))
            for s in self.spans:
                out.writerow((s.name, repr(s.start), repr(s.end), s.parent, s.op,
                              "" if s.redundant is None else int(s.redundant)))


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def layer_metrics(spans, absent=()):
    """Per-layer metrics over the traced ops in spans, named <layer>.<quantity>.

    Counts and self times are means per op; redundant_frac is the share of a
    layer's calls that repeated a key already seen in the same op.  Layers in
    `absent` are left out.
    """
    ops = sum(1 for s in spans if s.name == ROOT_SPAN)
    if ops == 0:
        raise ValueError("no traced ops")
    calls = defaultdict(int)
    redundant = defaultdict(int)
    sums = defaultdict(float)
    largest = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        sums[span.name, "self_s"] += own
        redundant[span.name] += bool(span.redundant)
        for quantity, value in (span.counts or {}).items():
            sums[span.name, quantity] += value
            largest[span.name, quantity] = max(largest[span.name, quantity], value)
    metrics = {}
    for layer, quantities in QUANTITIES.items():
        if layer in absent:
            continue
        for quantity in quantities:
            if quantity == "calls":
                value = calls[layer] / ops
            elif quantity == "redundant_frac":
                value = redundant[layer] / calls[layer] if calls[layer] else 0.0
            elif quantity == "matrix_n":
                value = largest[layer, quantity]
            else:
                value = sums[layer, quantity] / ops
            metrics[f"{layer}.{quantity}"] = {"value": value, "unit": UNITS[quantity]}
    return metrics
