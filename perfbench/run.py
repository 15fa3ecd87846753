#!/usr/bin/env python3
"""Build the Sickle benchmark and run one workload.

    python3 perfbench/run.py --workload suite|serve|edit --seed N \
        --seconds S --trace 0|1 [--demo-seed N] [--corpus-seed N]

Run from the repository root. The script builds, in release mode and
offline, the `sickle-serve` and `sickle-corpus` binaries of the
repository's workspace and the benchmark package in this directory (both
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the
benchmark binary with the given arguments. Build output goes to stderr;
the benchmark's report and its final JSON line go to stdout. The exit
code is the benchmark's (nonzero on any failed correctness check), or
the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "sickle-bench",
         "--bin", "sickle-serve", "--bin", "sickle-corpus"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for args in builds:
        code = cargo_build(args, target_dir)
        if code != 0:
            print("perfbench: build failed", file=sys.stderr)
            return code or 1
    bin_dir = os.path.join(target_dir, "release")
    cmd = [os.path.join(bin_dir, "sickle-perfbench"), "--bin-dir", bin_dir,
           "--refs", os.path.join(HERE, "refs"),
           "--work", os.path.join(target_dir, "perfbench-work")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
