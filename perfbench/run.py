#!/usr/bin/env python3
"""Builds and runs the Sage end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload serve --seed 7 --seconds 20 --trace 0

The engine is compiled from this checkout's sources into
<checkout>/.bench_build/perfbench on first use; graph images and span files
go to <checkout>/.bench_build/perfbench-work. Build output goes to standard
error. Standard output carries sage_perfbench's JSON lines, the last of which
is the result object. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(CHECKOUT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(CHECKOUT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "sage_perfbench")
# One run measures for --seconds plus set-up and checks; a run that takes
# this long is stuck.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cmd, timeout=None, **kwargs):
    """Runs cmd to completion. The child is killed and reaped when the
    timeout expires or this process is stopped."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def build():
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = _run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr)
        if code != 0:
            return False
    code, _ = _run(["cmake", "--build", BUILD_DIR, "--target", "sage_perfbench",
                    "--parallel", str(os.cpu_count() or 1)],
                   stdout=sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        code, out = _run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: driver exited {code} without a result",
              file=sys.stderr)
        return code or 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
