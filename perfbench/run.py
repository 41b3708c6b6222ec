#!/usr/bin/env python3
"""Builds and runs the end-to-end DataCon benchmark.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload analytic_cold --seed 1 --seconds 30 --trace 0

The engine is built from the checkout's src/ tree into .bench_build/perfbench
(RelWithDebInfo) on first use; later runs only rebuild what changed. Build
output goes to stderr. The benchmark binary's stdout is passed through, so the
last line of stdout is the one-line JSON result. Any build or run failure
exits non-zero without printing a result.
"""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "datacon_perfbench"
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DataCon sources under {ROOT / 'src'}; cannot build the engine")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(BUILD_DIR), "--target",
               "datacon_perfbench", "-j", BUILD_JOBS]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    try:
        proc = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
