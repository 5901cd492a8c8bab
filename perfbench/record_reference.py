"""Record the reference outputs the benchmark's output check compares against.

Runs every case of the chosen workloads once and writes
perfbench/reference/<workload>.json.  Run it only at a commit whose outputs
are the accepted ones; a later change is checked against these files.

    python3 perfbench/record_reference.py [--workload NAME ...]
"""

import argparse
import json

import env


def main(argv=None):
    env.cap_blas_threads()
    env.import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    outdir = env.OUT / "record"
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        cases = {}
        for case in range(w.pool):
            if w.prepared:
                workloads.write_case_files(outdir, case)
            cases[str(case)] = w.records(w.op(case, outdir))
            print(f"{name}: case {case} recorded", flush=True)
        path = env.BENCH_DIR / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "environment": env.environment(), "cases": cases}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
