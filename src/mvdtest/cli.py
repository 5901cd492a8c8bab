"""Command-line interface: two-sample tests, discrepancy curves, simulations.

Single test reports are emitted as JSON; curve and simulation tables as CSV
(JSON optional for simulations).  Every output embeds the full effective
configuration and no timestamps, so rerunning a command reproduces its output
byte for byte.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .closed_form import mmd_sq_isotropic, mvd_mmd_curves, mvd_sq_isotropic
from .kernels import KernelSpec, as_sample
from .null import SubsamplingPlan, run_tests
from .discrepancy import KINDS
from .simulate import _ALTERNATIVES, _COLUMNS, SIGMA_RULES, sigma_from_rule, type1_power_table, variance_table


def load_csv(path, has_header=False):
    """Read a numeric CSV (comma-separated, '.' decimals) into a sample matrix.

    Blank lines are ignored; ragged rows and non-numeric cells are reported
    with their line (and column) number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if has_header and lineno == 1:
            continue
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
        row = []
        for col, field in enumerate(fields, start=1):
            try:
                row.append(float(field))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}, column {col}: not a number: {field.strip()!r}"
                ) from None
        data.append(row)
    if not data:
        raise ValueError(f"{path}: no data rows")
    return as_sample(np.asarray(data, dtype=float), name=path)


def save_csv(matrix, path):
    """Write a sample matrix as plain CSV.  Reloading round-trips bitwise."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _list_of(convert, what):
    """An argparse type: a non-empty comma-separated list of convert(part) values."""
    def parse(text):
        try:
            values = [convert(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated list of {what}: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    return parse


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _names(text):
    """An argparse type: the non-blank comma-separated names in text, stripped."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _kinds(kind):
    return KINDS if kind == "both" else (kind,)


def _add_sigma_arg(parser):
    parser.add_argument("--sigma", default="auto",
                        help=f"bandwidth: a number or a rule (auto, {', '.join(SIGMA_RULES)}); "
                             "auto means d^-3/4 (default: %(default)s)")


def _add_kernel_args(parser):
    _add_sigma_arg(parser)
    parser.add_argument("--log-scale", type=float, default=0.0, metavar="C",
                        help="kernel scale exponent C in k' = e^C k (default: 0)")


def _add_seed_arg(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvdtest",
        description="Kernel two-sample tests comparing covariance operators (mvd) "
                    "and mean embeddings (mmd).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a two-sample test on two CSV files")
    p_test.add_argument("--x", required=True, help="CSV file with the first sample (rows = observations)")
    p_test.add_argument("--y", required=True, help="CSV file with the second sample")
    p_test.add_argument("--header", action="store_true", help="skip one header line in each CSV")
    _add_kernel_args(p_test)
    p_test.add_argument("--kind", choices=(*KINDS, "both"), default="mvd")
    p_test.add_argument("--alpha", type=float, default=0.05, help="significance level (default: 0.05)")
    p_test.add_argument("--draws", type=int, default=10000, metavar="J",
                        help="Monte Carlo draws for the critical value (default: 10000)")
    p_test.add_argument("--n1", type=int, default=None, help="subsampling split point (default: n//2)")
    p_test.add_argument("--k", type=int, default=None,
                        help="subsample size from the first pool (default: max(2, n//8))")
    p_test.add_argument("--l", type=int, default=None,
                        help="subsample size from the second pool (default: max(2, n//8))")
    p_test.add_argument("--subsample-iters", type=int, default=1000, metavar="I",
                        help="subsampling iterations (default: 1000)")
    p_test.add_argument("--tau", type=float, default=None,
                        help="variance inflation override (default: built-in table by kind and k/n)")
    _add_seed_arg(p_test)
    p_test.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_test.set_defaults(func=cmd_test)

    p_curves = sub.add_parser("curves", help="tabulate closed-form discrepancies over a (t, s) grid")
    p_curves.add_argument("--t", type=_list_of(float, "numbers"), default=[0.0, 0.5, 1.0, 1.5, 2.0],
                          metavar="T1,T2,...", help="mean-shift grid (default: 0,0.5,1,1.5,2)")
    p_curves.add_argument("--s", type=_list_of(float, "numbers"), default=[1.0], metavar="S1,S2,...",
                          help="variance-scale grid (default: 1)")
    p_curves.add_argument("--d", type=int, default=10, help="dimension (default: 10)")
    _add_kernel_args(p_curves)
    p_curves.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_curves.set_defaults(func=cmd_curves)

    # The tables run at C = 0, so simulate takes no --log-scale.  Table
    # options default to None: the library owns the defaults, and a table
    # refuses the other table's options (see cmd_simulate).
    p_sim = sub.add_parser("simulate", help="Monte Carlo variance or power table for one cell")
    p_sim.add_argument("--table", choices=tuple(_SIMULATE_TABLES), required=True)
    _add_sigma_arg(p_sim)
    p_sim.add_argument("--d", type=int, default=5, help="dimension (default: 5)")
    p_sim.add_argument("--n", type=int, default=200, help="first sample size (default: 200)")
    p_sim.add_argument("--m", type=int, default=200, help="second sample size (default: 200)")
    p_sim.add_argument("--kind", choices=(*KINDS, "both"), default="both")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications (default: 2000 for variance, 500 for power)")
    p_sim.add_argument("--divisors", type=_list_of(int, "integers"), default=None, metavar="D1,D2,...",
                       help="variance table only: subsample divisors, k = l = n//D (default: 4,6,8)")
    p_sim.add_argument("--divisor", type=int, default=None,
                       help="power table only: subsample divisor (default: 8)")
    p_sim.add_argument("--alternatives", type=_names, default=None,
                       help=f"power table only: comma list from {{{', '.join(_ALTERNATIVES)}}} "
                            f"(default: {','.join(_ALTERNATIVES)})")
    p_sim.add_argument("--alpha", type=float, default=None,
                       help="power table only: significance level (default: 0.05)")
    p_sim.add_argument("--draws", type=int, default=None, metavar="J",
                       help="power table only: Monte Carlo draws per test (default: 10000)")
    p_sim.add_argument("--subsample-iters", type=int, default=None, metavar="I",
                       help="subsampling iterations (default: 1000)")
    p_sim.add_argument("--tau", type=float, default=None,
                       help="power table only: variance inflation override (default: built-in table)")
    _add_seed_arg(p_sim)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_cf = sub.add_parser("closed-form", help="closed-form discrepancies for N(0, I) vs N(t*1, s*I)")
    p_cf.add_argument("--t", type=float, default=1.0, help="mean shift per coordinate (default: 1)")
    p_cf.add_argument("--s", type=float, default=1.0, help="variance scale (default: 1)")
    p_cf.add_argument("--d", type=int, default=5, help="dimension (default: 5)")
    _add_kernel_args(p_cf)
    p_cf.add_argument("--out", default=None)
    p_cf.set_defaults(func=cmd_closed_form)

    return parser


def _report_payload(report, args, sigma, d):
    return {
        "kind": report.kind,
        "n": report.n,
        "m": report.m,
        "d": d,
        "sigma": sigma,
        "C": args.log_scale,
        "statistic": report.statistic,
        "critical_value_wprime": report.critical_value,
        "critical_value_uncorrected": report.critical_value_uncorrected,
        "p_value": report.p_value,
        "reject": report.reject,
        "tau": report.tau,
        "v_sub": report.v_sub,
        "xi": report.xi,
        "c": report.c,
        "seed": report.seed,
        "version": __version__,
        "kernel": "gaussian",
        "alpha": report.alpha,
        "draws": report.draws,
        "n1": report.plan.n1,
        "k": report.plan.k,
        "l": report.plan.l,
        "subsample_iters": report.plan.iterations,
        "x": args.x,
        "y": args.y,
        "header": args.header,
        "weights_trace": report.weights_trace,
        "clipped_count": report.clipped_count,
        "clipped_mass": report.clipped_mass,
        "statistic_clamped": report.statistic_clamped,
    }


def cmd_test(args):
    x = load_csv(args.x, has_header=args.header)
    y = load_csv(args.y, has_header=args.header)
    d = x.shape[1]
    sigma = sigma_from_rule(args.sigma, d)
    spec = KernelSpec(sigma=sigma, log_scale=args.log_scale)
    plan = SubsamplingPlan.for_sample(x.shape[0], iterations=args.subsample_iters)
    overrides = {name: getattr(args, name) for name in ("n1", "k", "l") if getattr(args, name) is not None}
    plan = dataclasses.replace(plan, **overrides)
    reports = run_tests(x, y, spec, kinds=_kinds(args.kind), plan=plan, tau=args.tau,
                        alpha=args.alpha, draws=args.draws, seed=args.seed)
    payloads = [_report_payload(report, args, sigma, d) for report in reports]
    body = payloads[0] if len(payloads) == 1 else payloads
    _emit(json.dumps(body, indent=2) + "\n", args.out)
    return 0


def cmd_curves(args):
    sigma = sigma_from_rule(args.sigma, args.d)
    rows = mvd_mmd_curves(args.t, args.s, args.d, sigma, args.log_scale)
    lines = ["t,s,d,sigma,C,mmd_sq,mvd_sq"]
    for t, s, mmd_sq, mvd_sq in rows:
        # Python floats: numpy 2 writes an np.float64 as "np.float64(...)".
        cells = (float(t), float(s), args.d, float(sigma), float(args.log_scale), float(mmd_sq), float(mvd_sq))
        lines.append(",".join(map(_csv_cell, cells)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _result_csv(result):
    lines = ["# config " + json.dumps(result.config, sort_keys=True)]
    lines.append(",".join(_COLUMNS))
    for row in result.rows:
        lines.append(",".join(_csv_cell(row[col]) for col in _COLUMNS))
    return "\n".join(lines) + "\n"


# Each table with the options it takes: simulate's argument name -> the table's parameter.
_SIMULATE_TABLES = {
    "variance": (variance_table, {"reps": "reps", "divisors": "divisors", "subsample_iters": "iterations"}),
    "power": (type1_power_table, {"reps": "reps", "divisor": "divisor", "alternatives": "alternatives",
                                  "alpha": "alpha", "draws": "draws", "subsample_iters": "iterations",
                                  "tau": "tau"}),
}
_SIMULATE_OPTIONS = dict.fromkeys(dest for _, options in _SIMULATE_TABLES.values() for dest in options)


def cmd_simulate(args):
    table, options = _SIMULATE_TABLES[args.table]
    given = {dest: getattr(args, dest) for dest in _SIMULATE_OPTIONS if getattr(args, dest) is not None}
    stray = [dest for dest in given if dest not in options]
    if stray:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in stray)
        raise ValueError(f"--table {args.table} does not take {flags}")
    result = table([(args.sigma, args.d, args.n, args.m)], kinds=_kinds(args.kind), seed=args.seed,
                   **{options[dest]: value for dest, value in given.items()})
    if args.format == "json":
        text = json.dumps({"version": __version__, "config": result.config, "rows": list(result.rows)}, indent=2) + "\n"
    else:
        text = _result_csv(result)
    _emit(text, args.out)
    return 0


def cmd_closed_form(args):
    sigma = sigma_from_rule(args.sigma, args.d)
    payload = {
        "t": args.t,
        "s": args.s,
        "d": args.d,
        "sigma": sigma,
        "C": args.log_scale,
        "mmd_sq": mmd_sq_isotropic(args.t, args.s, args.d, sigma, args.log_scale),
        "mvd_sq": mvd_sq_isotropic(args.t, args.s, args.d, sigma, args.log_scale),
        "version": __version__,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
