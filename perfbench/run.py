#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus the driver binary)
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
only what changed. The driver binary's output is relayed unchanged:
a host-facts JSON line, '# ' lines for people, and as the last line
the result object {"correct", "attempted", "failed", "metrics"}.

The committed digest of the (workload, size, seed) in
perfbench/digests.json, when there is one, is passed to the binary,
which fails the output check on a mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qa-stream", "rag-pressure", "fleet64-lo", "fig8-cold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]")
    return args


def build():
    """Configure (once) and build; returns the driver binary path."""
    if not (ROOT / "src" / "cluster" / "cluster_engine.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries the result.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired, OSError) as e:
            fail(f"build failed: {e}")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def committed_digest(args):
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(args.size, {}).get(args.workload, {}).get(
        str(args.seed))


def main():
    args = parse_args()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--size", args.size]
    expect = committed_digest(args)
    if expect:
        cmd += ["--expect", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
