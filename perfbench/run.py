#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <query_serve|bulk_ingest|edit_serve> \
        --seed <n> --seconds <n> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); the traced run writes its spans under the same directory,
in `perfbench-trace/<workload>.jsonl`. Build output goes to standard error,
so the last line of standard output is the run's JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    trace_dir = os.path.join(target, "perfbench-trace")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--trace-dir", trace_dir],
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
