#!/usr/bin/env python3
"""Build and run the shuffle benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <paper|raw-skew|push-spill> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a Cargo package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The
benchmark's files (MOFs, spill files) go to `.bench_work/` in the
checkout and are removed afterwards. The last line of standard output is
the benchmark's JSON result; build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

# The benchmark itself bounds its run; this only guards a hung build or run.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        print("run.py: run from the root of the checkout", file=sys.stderr)
        return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(root, ".bench_work")
    proc = subprocess.Popen([binary, *sys.argv[1:], "--work-dir", work])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
