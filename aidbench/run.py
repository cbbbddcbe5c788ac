#!/usr/bin/env python3
"""Builds and runs the AID benchmark.

Run from the repository root:

    python3 aidbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (aidbench/CMakeLists.txt) builds the library from the
repository root in an optimized configuration under the build directory
($CARGO_TARGET_DIR if set, else .bench_build), then runs the aidbench binary
with the same arguments. With --trace 1 the run also leaves a Chrome trace
at <build dir>/aidbench-<workload>-trace.json. The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "aidbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", "4", "--target", "aidbench"],
        stdout=sys.stderr, env=env, check=True)
    return os.path.join(cmake_dir, "bin", "aidbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"aidbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(build_dir, f"aidbench-{args.workload}-trace.json")]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
