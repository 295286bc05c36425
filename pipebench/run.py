#!/usr/bin/env python3
"""Build bench_pipeline from source, then run it with the given arguments.

Run from the root of a kgwas checkout:

    python3 pipebench/run.py --workload solve_tall --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --seed 20240901 --out bench_results.json

The build goes to $CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench)
and is incremental, so only the first run compiles.  Build output goes to
stderr: the last line of stdout is the benchmark's JSON result.  Traces of
single-workload runs are written to the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "pipebench"))
    build(build_dir)
    args = sys.argv[1:]
    if "--workload" in args and "--trace-dir" not in args:
        args += ["--trace-dir", build_dir]
    binary = os.path.join(build_dir, "bench_pipeline")
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
