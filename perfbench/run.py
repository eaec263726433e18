#!/usr/bin/env python3
"""End-to-end TMan benchmark.

Builds perfbench/tman_perfbench (and the TMan libraries it links, from
src/) in an optimized CMake build under .bench_build/, runs one workload and
prints its JSON result as the last line of stdout:

    python3 perfbench/run.py --workload scale1 --seed 1 --seconds 50 --trace 0

Workloads (see tman_perfbench.cc): the repository's Fig. 22(b) update
benchmark at TMAN_SCALE 1 and 4, with the six queries run between its
500-trip Insert batches.
  scale1  2,000 Lorry-like trips bulk-loaded
  scale4  8,000 Lorry-like trips bulk-loaded

--trace 0 reports end-to-end metrics, --trace 1 per-layer metrics from a
traced run (its spans go to .bench_build/spans/). Build output and progress
go to stderr. Run it from the repository root or anywhere else; all files
are written inside the repository's .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scale1", "scale4")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "tman_perfbench"
# A run ends at most one episode (~10 s) after --seconds; the grace keeps a
# hung run well inside three minutes.
RUN_GRACE_SECONDS = 110


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scoped_env():
    """The environment for child processes, with temp files kept inside
    .bench_build/ so the benchmark writes nothing outside the repository."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(env):
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "tman_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: no TMan sources at {ROOT / 'src'}")
        return 1
    env = scoped_env()
    if not build(env):
        log("error: build failed")
        return 1

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir = BUILD_ROOT / "data" / run_id
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(data_dir)]
    if args.trace:
        spans = BUILD_ROOT / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=args.seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        log("error: benchmark run timed out")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"error: benchmark exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("error: malformed result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
