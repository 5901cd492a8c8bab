"""Benchmark of mvdtest: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up runs several times, each in a fresh
interpreter that imports mvdtest from src/, writes the workload's input files
and warms up; setup_s is the median.  Then ops run in a closed loop (one
caller, one op after another) until --seconds have passed; the op in flight
finishes.  Every op's output is checked against the reference recorded in
perfbench/reference/ and against the report invariants; an op that raises or
fails a check counts as failed.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs
each op twice, once plainly and once with every layer function wrapped (the
order alternates), and reports per-layer metrics from the traced runs plus
the tracing overhead.  The last stdout line is the JSON result; the line
before it holds the environment and run details, which are also written,
with the spans of a traced run, under .perfbench_out/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import env
import measure

SETUP_REPEATS = 5

_SETUP_CHILD = (
    "import sys; from pathlib import Path; sys.path[:0] = [{src!r}, {bench!r}]; "
    "import workloads; workloads.prepare({name!r}, {seed}, Path({outdir!r}))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(name, seed, outdir):
    """Wall times of SETUP_REPEATS fresh-interpreter set-ups of the workload."""
    code = _SETUP_CHILD.format(src=str(env.SRC), bench=str(env.BENCH_DIR), name=name,
                               seed=seed, outdir=str(outdir))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=env.ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs and checks the ops of one workload, counting attempts and failures."""

    def __init__(self, workload, reference, seed, outdir):
        self.workload = workload
        self.reference = reference
        self.seed = seed
        self.outdir = outdir
        self.attempted = 0
        self.cases = []
        self.failures = []

    def run(self, k, context=None):
        """Run op k (inside `context` if given); return (seconds, ok)."""
        w = self.workload
        case = w.case(self.seed, k)
        self.attempted += 1
        self.cases.append(case)
        start = time.perf_counter()
        try:
            if context is None:
                raw = w.op(case, self.outdir)
            else:
                with context:
                    raw = w.op(case, self.outdir)
            elapsed = time.perf_counter() - start
            problems = measure.check_records(w.records(raw), self.reference[str(case)], w.exact_fields)
        except Exception:  # an op that raises is a failed op; keep running the loop
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc()]
        if problems:
            self.failures.append({"op": k, "case": case, "problems": problems[:10]})
        return elapsed, not problems


def run_plain(runner, seconds):
    """Closed loop with tracing off; returns the end-to-end metrics."""
    latencies = []
    completed = 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        elapsed, ok = runner.run(k)
        latencies.append(elapsed)
        completed += ok
        k += 1
    wall = time.perf_counter() - start
    tail = measure.tail_percentile(len(latencies))
    details = {"latencies_s": latencies, "tail_percentile": tail, "latency_samples": len(latencies)}
    metrics = {
        "ops_per_s": (completed / wall, "1/s"),
        "op_latency_p50_s": (measure.percentile(latencies, 50), "s"),
        "op_latency_tail_s": (measure.percentile(latencies, tail), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, details


def run_traced(runner, seconds, package, modules, spans_path):
    """Each op plain and traced, in alternating order; returns the per-layer metrics."""
    import tracing  # imports numpy, so only after the BLAS cap

    tracer = tracing.Tracer()
    plain, traced, absent = [], [], []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(runner.run(k)[0])
                continue
            with tracer.installed(package, modules) as absent:
                traced.append(runner.run(k, tracer.op(k))[0])
        k += 1
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, absent)
    metrics["traced_op_s"] = {"value": sum(traced) / len(traced), "unit": "s/op"}
    metrics["trace_overhead_frac"] = {"value": (sum(traced) - sum(plain)) / sum(plain), "unit": "fraction"}
    details = {"plain_latencies_s": plain, "traced_latencies_s": traced, "absent_layers": absent,
               "spans": str(spans_path), "span_count": len(tracer.spans)}
    return metrics, details


def main(argv=None):
    args = parse_args(argv)
    env.cap_blas_threads()
    try:
        package = env.import_package()
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        with open(env.BENCH_DIR / "reference" / f"{workload.name}.json", encoding="utf-8") as fh:
            reference = json.load(fh)["cases"]
    except (ImportError, KeyError, OSError) as exc:
        sys.stderr.write(f"perfbench: cannot run workload {args.workload!r}: {exc!r}\n")
        return 2
    outdir = env.OUT / f"{workload.name}-seed{args.seed}"
    try:
        setup_times = time_setup(workload.name, args.seed, outdir)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"perfbench: set-up failed: {exc}\n")
        return 2
    workloads.warm_up()

    runner = Runner(workload, reference, args.seed, outdir)
    if args.trace:
        modules = {name.split(".", 1)[1]: module for name, module in list(sys.modules.items())
                   if name.startswith("mvdtest.")}
        spans_path = env.OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        metrics, details = run_traced(runner, args.seconds, package, modules, spans_path)
    else:
        raw, details = run_plain(runner, args.seconds)
        raw["setup_s"] = (statistics.median(setup_times), "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    details.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cases": runner.cases,
        "setup_samples_s": setup_times, "failed_frac": failed / runner.attempted,
        "failures": runner.failures, "environment": env.environment(),
    })
    with open(env.OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
