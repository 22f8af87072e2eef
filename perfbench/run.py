#!/usr/bin/env python3
"""Builds the benchmark and the gcrd daemon from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload tsay-suite --seed 1998 --seconds 20 --trace 0
    python3 perfbench/run.py spread --workload scale-r6 --runs 10 --seconds 20

Cargo builds into $CARGO_TARGET_DIR (default .bench_build). Every other
argument goes to the perfbench binary; see perfbench/README.md. The last
line of standard output is the run's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "gcrd", "--bin", "gcrd"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        code = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"run.py: build failed ({code}): {' '.join(cmd)}", file=sys.stderr)
            return code
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--gcrd",
        os.path.join(release, "gcrd"),
        "--out-dir",
        os.path.join(root, ".bench_out"),
    ]
    return subprocess.call(cmd, cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
