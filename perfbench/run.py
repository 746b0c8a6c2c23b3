#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload list-mixed --seed 1 --seconds 18 --trace 0

Configures and builds perfbench/CMakeLists.txt (which builds the library from
the enclosing checkout) into .bench_build/perfbench, then runs the benchmark
binary with the given arguments.  Build output goes to stderr; the binary's
stdout passes through, so its last line is the JSON result.  Result and span
files go to perfbench/out/.  Exits non-zero, printing no result, when the
build or the run fails.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(HERE, "out")


def build(target):
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(f) for f in generated):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if target == "perfbench":
        os.makedirs(OUT, exist_ok=True)
        argv = argv + ["--out", OUT]
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
