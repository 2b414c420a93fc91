#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hot_match --seed 1 --seconds 15 \
        --trace 0

Configures and builds perfbench/ (which compiles the library from ../src
in Release, failpoints off) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. The
last line of standard output is the run's JSON result; build output goes
to standard error. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops per phase")
    args = parser.parse_args()

    out = build_dir()
    if shutil.which("cmake") is None or not build(out):
        return 1

    # Databases, spill runs and span dumps stay inside the checkout.
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        if name.endswith((".db", ".wal", ".tmp")):
            os.remove(os.path.join(work, name))
    env = dict(os.environ, TMPDIR=work)
    cmd = [os.path.join(out, "fm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.ops > 0:
        cmd += ["--ops", str(args.ops)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
