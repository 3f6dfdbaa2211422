#!/usr/bin/env python3
"""The repository benchmark's entry point.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 45 --trace 0

It builds `fcv` and the benchmark program from source with dune, runs one
workload, and passes its output through: metrics by name and unit, then
one JSON result line.  It exits non-zero when the build fails or when
the benchmark program reports a failure (a wrong output, or a metric
BENCHMARK.json does not list).  See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fcvbench.exe")
FCV = os.path.join(ROOT, "_build", "default", "bin", "fcv.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The program is built from the checkout's own sources.
    for needed in ("dune-project", os.path.join("bin", "fcv.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s here: run from the root of a checkout of the repository" % needed, 2)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/fcv.exe", "./perfbench/fcvbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        fail("build failed", 2)

    os.makedirs(WORK, exist_ok=True)
    # Its own process group, so a timeout also ends the daemons it started.
    proc = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spec", os.path.join(ROOT, "BENCHMARK.json"),
         "--fcv", FCV, "--work", os.path.join(WORK, args.workload)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the benchmark ran past its time limit", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("the benchmark reported a failure (exit %d)" % proc.returncode, 1)


if __name__ == "__main__":
    main()
