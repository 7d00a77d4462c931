#!/usr/bin/env python3
"""Build the etlopt end-to-end benchmark from source and run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload nightly_batch --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

Workloads: nightly_batch, plan_service, tenant_overlap, stream_ingest
(see perfbench/README.md). --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics; the last line of standard output is the
run's JSON result.

The program is built from ../src with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; run outputs (span dumps, checkpoint and plan scratch files) go
to the sibling perfbench_out directory. A failed build or run exits with
a non-zero code and prints no result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(os.cpu_count() or 1, 4))


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    out = os.path.join(build_base(), "perfbench")
    configured = any(
        os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j", str(BUILD_JOBS)],
        check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def run(cmd):
    """Runs `cmd` from the repository root, relaying its output; returns its
    exit code, or 1 if it outlives RUN_TIMEOUT_S (it is killed and reaped)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


def main():
    # Terminating this script still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    try:
        if args.self_test:
            return run([build("perfbench_helpers_test")])
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("etl_perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_base(), "perfbench_out")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
