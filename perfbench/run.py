#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

The flags are passed to the benchmark binary unchanged (a flag given twice
takes its last value). The binary is built with `cargo build --release` into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset; build output
goes to standard error. The benchmark runs from the repository root, so the
traced run writes its spans under `perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
