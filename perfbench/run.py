#!/usr/bin/env python3
"""Builds and runs the scan-to-map benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campus_paged --seed 1 --seconds 20 --trace 0

Builds the library and perfbench/src into $CARGO_TARGET_DIR (default
.bench_build) with CMake in Release mode, then runs scan_to_map_bench on the
workload defined in perfbench/workloads.json. The binary's table goes to
stdout and its last line, the JSON result, is re-emitted as the last line.
Exits non-zero without a result when the build, the run or a check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "scan_to_map_bench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return None
    return os.path.join(build_dir, "scan_to_map_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no omu source tree around %s\n" % HERE)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 2

    command = [binary, "--spec", os.path.join(HERE, "workloads.json"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_root, "run")]
    # The binary fills --seconds with repetitions, then builds the serial
    # reference; set-up and the reference take well under --seconds + 60.
    timeout_s = 2 * args.seconds + 60
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout_s)
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: benchmark exited with %d and no result\n" % proc.returncode)
        return proc.returncode or 3
    for line in lines[:-1]:
        print(line)
    # A failed correctness check still prints its result (correct=false,
    # no metrics) and exits non-zero.
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
