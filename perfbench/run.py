#!/usr/bin/env python3
"""Build and run the simulator benchmark (sfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator's libraries from src/
with their own CMake files) into .bench_build/perfbench, then runs
sfbench with the same arguments. The build, and cmake's up-to-date
check on later runs, happen before sfbench starts, so no timed region
includes them. sfbench's standard output is passed through; its last
line is the result JSON. Build output goes to standard error.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sfbench")
# A benchmark run must end within 180 s; a build may take longer.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build():
    """Configure once, then let cmake bring sfbench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found under "
                 + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "sfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build()
    cmd = [BINARY] + sys.argv[1:]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: sfbench did not finish within %d s"
                 % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
