"""Summarize benchmark result files: median and quartiles of every metric per workload.

    python3 perfbench/summarize.py .perfbench_out/result-*.json [--out FILE]

Each input is a result file written by run.py.  For traced runs the summary
also gives each layer's share of the traced op time (its self_s divided by
traced_op_s) and, read from the run's span file, its inclusive share (the
time inside its spans, children included, over the time inside op spans).
spread is (q3 - q1) / median, with the quartiles from
statistics.quantiles(values, n=4).  The environment and seeds of the runs are
kept beside the figures.
"""

import argparse
import csv
import gzip
import json
import statistics
from collections import defaultdict


def inclusive_shares(spans_path):
    """Each layer's time inside its spans, children included, over the time inside op spans."""
    totals = defaultdict(float)
    with gzip.open(spans_path, "rt", newline="") as fh:
        for row in csv.DictReader(fh):
            totals[row["name"]] += float(row["end"]) - float(row["start"])
    op_time = totals.pop("op")
    return {name: total / op_time for name, total in totals.items()}


def summarize(results):
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    units = {}
    for details, result in results:
        group = f"{details['workload']}/trace{details['trace']}"
        seeds[group].append(details["seed"])
        metrics = result["metrics"]
        for name, metric in metrics.items():
            values[group][name].append(metric["value"])
            units[name] = metric["unit"]
        if "traced_op_s" in metrics:
            for name, metric in metrics.items():
                if name.endswith(".self_s"):
                    share = metric["value"] / metrics["traced_op_s"]["value"]
                    values[group][name[:-len(".self_s")] + ".share"].append(share)
                    units[name[:-len(".self_s")] + ".share"] = "fraction"
            for layer, share in inclusive_shares(details["spans"]).items():
                values[group][layer + ".inclusive_share"].append(share)
                units[layer + ".inclusive_share"] = "fraction"
    summary = {"environment": results[0][0]["environment"]}
    for group, metrics in sorted(values.items()):
        summary[group] = {"seeds": sorted(seeds[group])}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            summary[group][name] = {
                "median": median, "q1": q1, "q3": q3, "runs": len(vals), "unit": units[name],
                "spread": (q3 - q1) / median if median else None,
            }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results = []
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        results.append((data["details"], data["result"]))
    text = json.dumps(summarize(results), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
