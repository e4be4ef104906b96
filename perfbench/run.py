#!/usr/bin/env python3
"""End-to-end synthesis benchmark entry point.

Run from the root of a transtore checkout:

    python3 perfbench/run.py --workload exact_small --seed 1 --seconds 50 --trace 0

Builds the library, transtore_cli and the runner (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR or .bench_build, measures set-up time as the median of
several spawns, runs the workload once and prints the runner's result as the
last line of standard output. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("table2_default", "exact_small", "large_skip_ilp", "serve_replay")
SETUP_SPAWNS = 8  # extra set-up-only spawns; the run itself is the ninth
PROCESS_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_runner(command, timeout):
    spawn = time.monotonic()
    proc = subprocess.run(command + ["--spawn-time", repr(spawn)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for required in ("src/api/pipeline.h", "examples/transtore_cli.cpp"):
        if not os.path.exists(os.path.join(root, required)):
            log(f"not a transtore checkout: {required} is missing under {root}")
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    work_dir = ".bench_run"
    os.makedirs(work_dir, exist_ok=True)
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    command = [os.path.join(build_dir, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(build_dir, "transtore_cli"),
               "--work-dir", work_dir]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS):
            code, out = run_runner(command + ["--setup-only"], 60)
            if code != 0:
                log(f"set-up spawn exited with {code}")
                return 1
            setups += [float(line.split()[1]) for line in out.splitlines()
                       if line.startswith("setup_s ")]

    code, out = run_runner(command, PROCESS_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        log(f"runner exited with {code}")
        return code or 1
    result = json.loads(lines[-1])
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "setup_s: median of %d spawns %s" % (
            len(setups), " ".join("%.6f" % s for s in setups)))
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
