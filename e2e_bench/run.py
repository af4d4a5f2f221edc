#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload cold_miss --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench); span dumps of
traced runs go to .bench_out/. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's: non-zero when the build fails, when any checked answer
is wrong, or when the run does not finish in time.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "e2e_bench"
    if not build(build_dir):
        print("e2e_bench: build failed", file=sys.stderr)
        return 1

    command = [str(build_dir / "tkc_e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(ROOT / ".bench_out")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
