#!/usr/bin/env python3
"""Build the locald benchmark from source and run one workload.

Run from the root of a locald source tree:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

The build output goes to stderr; the benchmark's last stdout line is
its JSON result. Outside a locald source tree it exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not at the root of a locald source tree", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
