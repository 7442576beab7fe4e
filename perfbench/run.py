#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 10 --trace 0

The gqa library and the benchmark program are compiled with CMake into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``); an
up-to-date build is a no-op. Build output goes to stderr, so the last line of
stdout is always the program's JSON result, and its exit code is returned.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_closed", "stream_open", "fit_cold")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    source_dir = os.path.join(root, "perfbench")
    if not shutil.which("cmake"):
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, env=env) != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "core", "approximator.cpp")):
        fail(f"no gqa sources under {os.path.join(root, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(root, target, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(root, build_dir, env)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(root, target, "perfbench-run")]
    proc = subprocess.Popen(command, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
