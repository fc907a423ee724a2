#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage (from the repo root):
  python3 perfbench/run.py --workload campaign_sweep --seed 1 --seconds 30 \
      --trace 0

Every argument is passed through to the harness binary (see
perfbench/README.md). The build goes to .bench_build/perfbench; run records
and span dumps go to .bench_build/perfbench-runs. The last line of standard
output is the harness's JSON result. Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build():
    # The program's sources live outside perfbench/; without them there is
    # nothing to measure.
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the checkout root: cannot build the program" %
                 needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "perfbench")
    cmd = [binary] + sys.argv[1:] + ["--out-dir", OUT_DIR,
                                     "--git-sha", git_sha()]
    # The harness owns every process it starts (the daemon) and reaps it
    # before exiting; run.py only waits for the harness.
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
