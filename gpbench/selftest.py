#!/usr/bin/env python3
"""The benchmark's own test.

    python3 gpbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes a short untraced run and a short traced run and checks that:
  * the last line is the result object with exactly the keys correct,
    attempted, failed and metrics, correct is true and attempted >= 1;
  * the untraced run prints every end_to_end metric and the traced run
    every per_layer metric, each with the unit BENCHMARK.json gives;
  * the exact counts (accuracy_pct bits, generator/recon_edges,
    selector/scored_pairs, augmenter/inserts, pretrain/steps, ...) repeat
    across two untraced invocations with the same seed and in the traced
    invocation.
It also checks that the benchmark fails, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = "7"
SECONDS = "1"


def run(args, cwd="."):
    proc = subprocess.run(["python3", "gpbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def counts_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    check(False, "no counts line in output")


def result(stdout, expected):
    lines = stdout.strip().splitlines()
    check(lines, "no output")
    obj = json.loads(lines[-1])
    check(set(obj) == {"correct", "attempted", "failed", "metrics"},
          "result keys are %s" % sorted(obj))
    check(obj["correct"] is True, "correct is not true")
    check(isinstance(obj["attempted"], int) and obj["attempted"] >= 1,
          "attempted < 1")
    check(isinstance(obj["failed"], int), "failed is not an integer")
    got = {name: m["unit"] for name, m in obj["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, "metrics/units differ from BENCHMARK.json: missing %s,"
          " extra %s" % (sorted(set(want) - set(got)),
                         sorted(set(got) - set(want))))
    for name, m in obj["metrics"].items():
        check(isinstance(m["value"], (int, float)), name + " is not a number")
    return obj


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in [x["name"] for x in bench["workloads"]]:
        base = ["--workload", w, "--seed", SEED, "--seconds", SECONDS]
        counts = []
        for trace in ("0", "0", "1"):
            rc, out, err = run(base + ["--trace", trace])
            check(rc == 0, "%s --trace %s exited %d: %s" % (w, trace, rc,
                                                            err[-2000:]))
            result(out, bench["end_to_end" if trace == "0" else "per_layer"])
            counts.append(counts_line(out))
        check(counts[0] == counts[1],
              "%s exact counts differ between invocations: %s vs %s" %
              (w, counts[0], counts[1]))
        check(counts[0] == counts[2],
              "%s exact counts differ between timed and traced runs: %s vs %s"
              % (w, counts[0], counts[2]))
        print("ok   %s: metrics and units match, counts repeat %s" %
              (w, counts[0]))

    # Without the program's sources the benchmark must fail cleanly.
    bare = os.path.join(".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    name = bench["workloads"][0]["name"]
    rc, out, _ = run(["--workload", name, "--seed", SEED, "--seconds",
                      SECONDS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0, "bare directory run exited 0")
    check(not out.strip(), "bare directory run printed a result")
    print("ok   bare directory: exit %d, no result" % rc)
    print("PASS")


if __name__ == "__main__":
    main()
