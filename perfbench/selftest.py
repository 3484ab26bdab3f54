#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks, at a tiny input size:
  1. every workload, untraced and traced, exits 0 with a correct result
     whose metrics are exactly BENCHMARK.json's list for the mode, each
     with its unit and a finite value;
  2. a deliberately corrupted reference digest makes the output gate
     fail each workload (exit 1, "correct": false, failures counted);
  3. the accuracy computation alone on the single seed-20150323
     eval::BuildCorpus corpus reproduces the paper-hybrid overall F and
     counts pinned in tests/golden/accuracy_golden.json;
  4. in a directory holding only BENCHMARK.json and the benchmark, the
     command fails with a nonzero exit and prints no result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["corpus_batch", "giant_doc", "serve_open_loop"]
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)
    return bool(ok)


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny(workload, trace, *extra):
    return ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny"] + list(extra)


def test_metrics():
    benchmark = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in benchmark[key]}
        for workload in WORKLOADS:
            code, lines, err = run(tiny(workload, trace))
            name = "%s --trace %d" % (workload, trace)
            if not check(code == 0 and lines, name + " exits 0"):
                print(err[-2000:])
                continue
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0,
                  name + " passes the output gate")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, name + " prints every metric with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  name + " prints numeric values")


def test_corrupt_reference():
    for workload in WORKLOADS:
        code, lines, _ = run(tiny(workload, 0, "--corrupt-reference"))
        result = json.loads(lines[-1]) if lines else {}
        check(code == 1 and result.get("correct") is False
              and result.get("failed", 0) >= 1,
              workload + " fails the gate on a corrupted reference digest")


def test_golden_accuracy():
    with open(os.path.join(ROOT, "tests", "golden",
                           "accuracy_golden.json")) as f:
        golden = json.load(f)
    hybrid = next(c for c in golden["configs"]
                  if c["label"] == "paper-hybrid")["overall"]
    code, lines, _ = run(["--workload", "corpus_batch", "--seed", "1",
                          "--seconds", "1", "--trace", "0",
                          "--accuracy-only-seed", str(golden["corpus_seed"])])
    if not check(code == 0 and lines, "accuracy-only run exits 0"):
        return
    info = json.loads(lines[-1])
    check(round(info["accuracy_f"]["value"], 6) == hybrid["f"],
          "accuracy_f on the seed-%d corpus is the golden paper-hybrid F %.6f"
          " (got %.6f)" % (golden["corpus_seed"], hybrid["f"],
                           info["accuracy_f"]["value"]))
    check([info["accuracy." + k]["value"]
           for k in ("gold", "attempted", "correct")]
          == [hybrid["gold"], hybrid["attempted"], hybrid["correct"]],
          "gold/attempted/correct counts match the golden")


def test_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = spec()["command"]
    proc = subprocess.run(command + tiny("corpus_batch", 0), cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    test_metrics()
    test_corrupt_reference()
    test_golden_accuracy()
    test_bare_directory()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
