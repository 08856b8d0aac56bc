#!/usr/bin/env python3
"""Builds the daosim benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload easy_8m --seed 1 --seconds 30 --trace 0

The first call configures and compiles perfbench/ (with the libraries in
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only rebuild what changed. Build output goes
to stderr. The program's output goes to stdout: a record line (seed, size,
per-repetition host times, every series' trace_hash and simulated bandwidth)
and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Extra options (--size smoke, --expect-hash SERIES=HEX) pass through
unchanged. The exit code is daosim_perf's: 0 when every correctness gate
held, 1 when one tripped, 2 on a usage or setup error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("easy_8m", "hard_64k", "overwrite_prod")
# A run measures for --seconds and then finishes the repetition in flight;
# the slowest repetition takes well under a minute.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: daosim sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *gen, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "daosim_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = ap.parse_known_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(build_dir())
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: daosim_perf exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
