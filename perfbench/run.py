#!/usr/bin/env python3
"""Build (if needed) and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_wire --seed 1 --seconds 10 --trace 0

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the repository's libraries from src/. The build tree is
$CARGO_TARGET_DIR (default .bench_build) under the current directory; build
output goes to stderr. The last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, if the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "jamm_perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "jamm_perfbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
