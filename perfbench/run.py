#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <mha_bound|capacity_bound|serve_openloop>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--size tiny]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under perfbench/, the span files and stderr captures of a
traced run next to it. The last stdout line is the result JSON. See
perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    stamp = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(stamp):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "sim", "system.hpp")):
        sys.stderr.write("perfbench: the library sources (src/) are not in "
                         "this checkout; nothing to build\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    workdir = os.path.join(target, "perfbench")
    build_dir = os.path.join(workdir, "build")
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    args = sys.argv[1:]
    if "--workdir" not in args:
        args += ["--workdir", workdir]
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main())
