#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload large-combined --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark binary (see README.md); --trace 1
also gets a --spans-out file in the build directory. The build directory
is $CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits nonzero, printing no result, when
the build fails or the library sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target",
                            "pira_perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--spans-out" not in args:
        try:
            traced = args[args.index("--trace") + 1] not in ("0", "")
            workload = args[args.index("--workload") + 1]
        except (ValueError, IndexError):
            traced = False
        if traced:
            args += ["--spans-out",
                     os.path.join(build_dir, "spans-%s.json" % workload)]
    exe = os.path.join(build_dir, "pira_perfbench")
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
