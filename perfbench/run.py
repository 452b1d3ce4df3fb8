#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes through dune into _build/
in the working directory; its output goes to stderr so that the last
line on stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([EXE] + sys.argv[1:], timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
