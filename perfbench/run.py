#!/usr/bin/env python3
"""Builds and runs the kvscale benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fine_count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root or anywhere else: paths are resolved from
this file. The first run configures and builds perfbench/ (and the library
sources it links) into .bench_build/perfbench; later runs only check the
build. The last line of stdout is the result JSON with exactly the keys
correct, attempted, failed and metrics; a "host {...}" fingerprint line
precedes it. The exit code is 0 only when every answer was correct.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fine_count", "coarse_mix", "ingest_read")
RUN_TIMEOUT_S = 170  # one run, after the build
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds the benchmark binaries; returns the
    build directory. Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out_dir.mkdir(parents=True, exist_ok=True)
    build_dir = out_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (build_dir / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "-j", jobs,
             "--target", "perfbench_driver", "perfbench_selftest"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def run_driver(build_dir, work_dir, extra):
    """Runs the driver; returns (exit code, host line, result dict or None)."""
    command = [str(build_dir / "perfbench_driver"),
               f"--work-dir={work_dir}"] + extra
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver timed out after {RUN_TIMEOUT_S} s")
        return 124, None, None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    host = next((l for l in lines if l.startswith("host ")), None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, host, result


def run_benchmark(args):
    out_dir = build_root()
    build_dir = build(out_dir)
    work_dir = out_dir / f"run-{os.getpid()}"
    extra = [f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace == 1:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra.append(
            f"--trace-out={traces / f'{args.workload}-seed{args.seed}.json'}")
    try:
        code, host, result = run_driver(build_dir, work_dir, extra)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        log(f"driver exited {code} without a result")
        return code or 3
    if host:
        print(host)
    print(json.dumps(result))
    if not result["correct"] or result["failed"] > 0:
        return code or 1
    return code


def run_selftest():
    out_dir = build_root()
    build_dir = build(out_dir)
    work_dir = out_dir / f"selftest-{os.getpid()}"
    try:
        unit = subprocess.run(
            [str(build_dir / "perfbench_selftest"), str(work_dir)],
            timeout=RUN_TIMEOUT_S)
        failures = 0 if unit.returncode == 0 else 1
        # End to end: a falsified expected answer must fail a real run.
        code, _, result = run_driver(
            build_dir, work_dir,
            ["--workload=fine_count", "--seed=3", "--seconds=0.5",
             "--trace=0", "--corrupt-oracle=true"])
        refused = code != 0 and result is not None and not result["correct"]
        print(f"{'ok  ' if refused else 'FAIL'} the driver exits non-zero "
              f"on a wrong expected answer (exit {code})")
        failures += 0 if refused else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    try:
        code = run_selftest() if args.selftest else run_benchmark(args)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(str(error))
        return 2
    log(f"done in {time.monotonic() - started:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
