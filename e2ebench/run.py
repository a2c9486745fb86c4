#!/usr/bin/env python3
"""Builds the daemon and the benchmark program from source, then runs one
workload of the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload train-closed --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The build lives in .bench_build/, per-run
artifacts (spans, daemon logs, result documents) in .bench_out/. The last
line of standard output is the run's JSON result; everything else goes to
standard error.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.h")):
        print("e2ebench: slicetuner sources not found under " + ROOT,
              file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "e2ebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "e2ebench"), "--out=" + OUT_DIR,
               "--commit=" + commit()]
    command += sys.argv[1:]
    # Own process group: a timeout takes e2ebench and its daemon down
    # together, and nothing outlives the run.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s; killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
