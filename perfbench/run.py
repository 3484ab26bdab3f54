#!/usr/bin/env python3
"""Builds the XSDF pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload corpus_batch --seed 1 \
        --seconds 30 --trace 0

Run from the repository root (any working directory works: paths are
resolved from this file). The C++ benchmark binary is configured and built
incrementally under .bench_build/perfbench, then run; its standard
error streams through, and the last line of standard output is the
result object, checked here against the metric lists in
BENCHMARK.json. Extra flags (--tiny, --corrupt-reference,
--accuracy-only-seed N) pass through to the binary; see README.md.

Exit status: the binary's (0 all outputs correct, 1 an output failed
the gate, 2 set-up error), or 3 when the build fails or the result is
malformed. Nothing is printed on stdout unless a result was produced.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no xsdf sources next to the benchmark (expected %s)"
            % os.path.join(ROOT, "src"))
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        log("last line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys are %s" % sorted(result))
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        log("attempted must be a whole number >= 1")
        return False
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return False
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("metric %s has no finite value" % name)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not build():
        return 3
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(BUILD, "runs"),
               "--commit", source_id()] + extra
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=None,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("the benchmark ran past %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 3
    if "--accuracy-only-seed" in extra:
        print("\n".join(lines), flush=True)
        return proc.returncode
    if not valid_result(lines[-1], args.trace == "1"):
        return 3
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
