#!/usr/bin/env python3
"""Builds the interaction-time benchmark from source and runs one workload.

    python3 interbench/run.py --workload lofar_build --seed 1 --seconds 20 --trace 0
    python3 interbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. --selftest builds
and runs the benchmark's own tests of its correctness checks instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("interbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no Blaeu sources next to the benchmark; run it from a checkout")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "interbench")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not any(os.path.isfile(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", build_dir, "--target", target,
                             "-j", jobs], stdout=sys.stderr, env=env)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("interbench_selftest")]).returncode
    binary = build("interbench")
    try:
        return subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
