#!/usr/bin/env python3
"""Build paccport and the benchmark harness, then run one workload.

    python3 perfbench/run.py --workload paper|check|serve --seed N \
        --seconds N --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`). The harness's last stdout line is the result
JSON; see perfbench/DESIGN.md.
"""

import os
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["-p", "paccport-bench", "--bin", "reproduce"],
        ["--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--reproduce",
        os.path.join(release, "reproduce"),
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run(harness).returncode)


if __name__ == "__main__":
    main()
