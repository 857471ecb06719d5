#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload web-pace|web-poll|pacer-1m \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/bench.exe from
source with dune (build output goes to stderr), then runs it with the
same arguments; a traced run writes its spans under perfbench/out/.
The benchmark's last stdout line is the JSON result, and its exit code
is passed through: 0 when every correctness check held, 1 when one
failed, 2 on a usage error.  A failed build exits non-zero before any
result is printed.  See perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SPANS = os.path.join("perfbench", "out")


def main(argv):
    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.makedirs(SPANS, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([EXE] + argv + ["--out", SPANS]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
