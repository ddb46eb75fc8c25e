#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs it.

    python3 gpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Paths are relative to the checkout root (the directory above this
file). The binary is built with CMake into .bench_build/gpbench
(incremental after the first run); build output goes to
.bench_run/build.log. The binary's standard output is passed through,
so its result object stays the last line. Exits non-zero, without a result
line, when the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "gpbench")
RUN_DIR = ".bench_run"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-overlap", "eval-manyway", "pretrain")


def fail(message):
    print("gpbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for source in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, source)):
            fail("no program sources next to the benchmark (%s is missing)"
                 % source)
    os.makedirs(RUN_DIR, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    log_path = os.path.join(RUN_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "gpbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "gpbench",
                      "-j", "4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                fail("build failed (exit %d); see %s" % (rc, log_path))
    return os.path.join(BUILD_DIR, "gpbench")


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in WORKLOADS:
        fail("unknown workload %s (one of %s)" % (opts["--workload"],
                                                  ", ".join(WORKLOADS)))
    os.chdir(ROOT)
    binary = build()
    cmd = [binary] + argv
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
