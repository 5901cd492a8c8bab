"""The benchmark's workloads: their inputs, one operation each, and its output records.

Every workload is a closed loop: one caller in one process runs one op after
another.  Op k of a run with seed s works on case (STRIDE * s + k) mod pool, so
the same seed gives the same inputs and every case has reference outputs
recorded in perfbench/reference/ (see record_reference.py).

* power_sweep: type1_power_table on one cell with reps=1, i.e. six run_test
  calls (null, uniform and exponential scenarios x both kinds).  It is the
  Tier-1 power gate's traffic; time goes to the small-block subsampling loop
  and the chi-square draws, while eigh and the Gram blocks are about 2%.
* cli_large: an in-process `mvdtest test --kind both` on two n = m = 2000,
  d = 5 null-hypothesis CSV files written at setup.  The only workload where
  O(n^3) eigh, J x (n - 1) draws, n^2 Gram memory and CSV/JSON handling
  matter.
* variance_calibration: variance_table on the slow acceptance gate's cell.
  Mostly fresh build_gram_set + statistic, plus subsampling; it never calls
  eigh or the draws, so a change to those should leave it unchanged.
"""

import json
from dataclasses import dataclass
from typing import Callable

import mvdtest.cli
import mvdtest.simulate
from mvdtest.kernels import KernelSpec
from mvdtest.null import SubsamplingPlan, run_test
from mvdtest.simulate import DistributionSpec, sample

# Op k of a run with seed s uses case (STRIDE * s + k) mod pool.
STRIDE = 13

# The Tier-1 gate cell: (sigma rule, d, n, m).
CELL = ("d^-3/4", 5, 200, 200)

CLI_ROWS = 2000
CLI_DIM = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    op(case, outdir) is the timed operation; records(raw) turns what it
    returned into the JSON-like records the output check compares with the
    reference.  prepared is the number of cases whose input files setup
    writes (None when the op makes its own inputs from the case seed); op k
    then reuses those cases in turn.
    """

    name: str
    pool: int
    op: Callable
    records: Callable
    exact_fields: frozenset = frozenset()
    prepared: int = None

    def case(self, seed, k):
        step = k % self.prepared if self.prepared else k
        return (STRIDE * seed + step) % self.pool

    def setup_cases(self, seed):
        return [self.case(seed, k) for k in range(self.prepared or 0)]


def _rows(result):
    return [dict(row) for row in result.rows]


# Ops call the entry points through their modules, so the traced run's wrappers
# (swapped into the mvdtest modules) see them.
def _power_op(case, outdir):
    return mvdtest.simulate.type1_power_table([CELL], reps=1, seed=case)


def _variance_op(case, outdir):
    return mvdtest.simulate.variance_table([CELL], reps=2000, divisors=(4, 6, 8), iterations=1000, seed=case)


def case_files(outdir, case):
    """Paths of the two CSV files of one cli_large case."""
    return outdir / f"cli-{case}-x.csv", outdir / f"cli-{case}-y.csv"


def write_case_files(outdir, case):
    """Write the two null-hypothesis samples of one cli_large case."""
    dist = DistributionSpec.std_normal(CLI_DIM)
    for part, path in enumerate(case_files(outdir, case)):
        mvdtest.cli.save_csv(sample(dist, CLI_ROWS, seed=[case, part]), path)


def _cli_op(case, outdir):
    x, y = case_files(outdir, case)
    out = outdir / f"cli-{case}-report.json"
    status = mvdtest.cli.main(["test", "--x", str(x), "--y", str(y), "--kind", "both",
                               "--seed", str(case), "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"mvdtest test exited with status {status}")
    return out


def _cli_records(out):
    """The CLI's JSON reports, minus the input paths it echoes."""
    try:
        with open(out, encoding="utf-8") as fh:
            payloads = json.load(fh)
    finally:
        out.unlink(missing_ok=True)
    return [{key: value for key, value in p.items() if key not in ("x", "y")} for p in payloads]


WORKLOADS = {
    "power_sweep": Workload("power_sweep", pool=64, op=_power_op, records=_rows,
                            exact_fields=frozenset({"value"})),
    "cli_large": Workload("cli_large", pool=16, op=_cli_op, records=_cli_records, prepared=4),
    "variance_calibration": Workload("variance_calibration", pool=32, op=_variance_op, records=_rows),
}


def warm_up():
    """Run one small test of each kind so lazy library set-up happens before timing."""
    dist = DistributionSpec.std_normal(CLI_DIM)
    x, y = sample(dist, 40, seed=[0, 0]), sample(dist, 40, seed=[0, 1])
    plan = SubsamplingPlan.for_sample(40, iterations=20)
    for kind in ("mvd", "mmd"):
        run_test(x, y, KernelSpec(sigma=1.0), kind=kind, plan=plan, draws=200)


def prepare(name, seed, outdir):
    """Set-up of one run: write the workload's input files, then warm up."""
    outdir.mkdir(parents=True, exist_ok=True)
    for case in WORKLOADS[name].setup_cases(seed):
        write_case_files(outdir, case)
    warm_up()
