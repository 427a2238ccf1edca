#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream_ff --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest      # determinism and seed checks
    python3 perfbench/run.py --coverage      # layer-coverage report

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) and
is reused by later runs. Build output goes to stderr, so the last line of
stdout is the binary's JSON result, and its exit code is returned.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BINARY = "vcop_perfbench"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("perfbench: vcop sources (src/) are missing\n")
        return False
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(out), "--target", BINARY,
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def main():
    out = build_dir()
    try:
        built = build(out)
    except OSError as error:
        sys.stderr.write(f"perfbench: build failed: {error}\n")
        built = False
    if not built:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    return subprocess.run([str(out / BINARY), *sys.argv[1:],
                           "--out-dir", str(out)]).returncode


if __name__ == "__main__":
    sys.exit(main())
