#!/usr/bin/env python3
"""End-to-end benchmark of the paper's 21-language workload.

Builds the runner from source (perfbench/ plus the library in src/),
runs one workload and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload train_lang --seed 0 \
        --seconds 10 --trace 0

Workloads: train_lang, serve_mixed, sweep_scan, sweep_ham (see
README.md).
--trace 1 prints the per-layer split instead of the end-to-end metrics.
`--self-test` builds and runs the harness tests instead.

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")
WORKLOADS = ("train_lang", "serve_mixed", "sweep_scan", "sweep_ham")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Seconds one run may take, and the first run that also builds.
RUN_BUDGET_S = 175
BUILD_BUDGET_S = 890


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir, target):
    """Configure (once) and build @target; True when it configured."""
    jobs = str(min(4, os.cpu_count() or 1))
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, check=True)
    return fresh


def fingerprint_of(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            return " ".join(
                "%s=%s" % (k, fields.get(k, "?"))
                for k in ("nproc", "kernel", "build"))
    return None


def flag_fingerprint(build_dir, current):
    """The first run's fingerprint is the reference; flag any change."""
    path = os.path.join(build_dir, "fingerprint.txt")
    if current is None:
        return None
    if not os.path.exists(path):
        with open(path, "w") as out:
            out.write(current + "\n")
        return None
    with open(path) as f:
        first = f.read().strip()
    if first != current:
        return ("WARNING fingerprint changed: first run had [%s], this "
                "run has [%s]; do not compare these numbers" %
                (first, current))
    return None


def self_test():
    build_dir = os.path.join(build_root(), "perfbench")
    build(build_dir, "perfbench_harness_test")
    return subprocess.run(
        [os.path.join(build_dir, "perfbench_harness_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(SOURCE):
        log("perfbench: library sources not found at", SOURCE)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    build_dir = os.path.join(build_root(), "perfbench")
    try:
        fresh = build(build_dir, "perfbench_runner")
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed:", err)
        return 1

    workdir = os.path.join(build_dir, "run-" + args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    budget = (BUILD_BUDGET_S if fresh else RUN_BUDGET_S)
    budget -= time.monotonic() - start
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench_runner"),
             "--workload", args.workload,
             "--seed", str(args.seed % 2**64),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded its time budget")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log("perfbench: runner exited with", proc.returncode)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        log("perfbench: runner printed no result line")
        return 1

    warning = flag_fingerprint(build_dir, fingerprint_of(lines))
    body = lines[:-1] + ([warning] if warning else [])
    print("\n".join(body + [lines[-1]]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
