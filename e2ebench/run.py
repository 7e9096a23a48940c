#!/usr/bin/env python3
"""End-to-end benchmark of the One4All-ST serving system.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload adhoc_point --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (CMake, Release) into .bench_build/e2ebench on first use,
runs one workload against a real ServingRuntime and prints every metric
as "name = value unit", the run envelope (host, build, threads, validity),
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; set-up time
is the median of three set-ups (two set-up-only processes plus the
measured run). --trace 1 reports the per-layer metrics of a traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800
SETUP_REPEATS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(args, echo):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines:
        return done.returncode, None
    try:
        return done.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return done.returncode, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--git-sha", git_sha()]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            code, out = run_binary(common + ["--setup-only"], echo=False)
            if code != 0 or out is None:
                log("set-up run failed")
                return 1
            setups.append(out["metrics"]["setup_s"]["value"])

    code, out = run_binary(common + ["--trace", str(args.trace)], echo=True)
    if out is None:
        log("benchmark run failed with exit code %d" % code)
        return 1
    metrics = out["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print("  setup_s (median of %d set-ups) = %.6g s"
              % (len(setups), metrics["setup_s"]["value"]))
    print("envelope: " + json.dumps(out["envelope"], sort_keys=True))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if code == 0 and out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
