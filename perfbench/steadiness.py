#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.json

Runs every workload (or --workloads a,b) once per seed 1..N through
run.py with --trace 0 and BENCHMARK.json's run_seconds, then reports,
per workload and metric, the ten values, their median, and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric
is steady when its spread is below a third of its bound; setup_s is
exempt from the spread rule (its bound guards the median only). Exits 1
when a run fails or a metric is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)"
                      % (workload, seed, proc.returncode), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            rows[name] = {"values": vals, "median": median, "spread": spread,
                          "bound": bounds[name], "steady": ok}
            print("%-16s %-15s median %-12.6g spread %.4f (bound %.2f)%s"
                  % (workload, name, median, spread, bounds[name],
                     "" if ok else "  NOT STEADY"), flush=True)
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
