#!/usr/bin/env python3
"""Builds and runs the end-to-end InsightNotes benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <ingest|explore_hot|archive_cold> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds libinsightnotes from ../src plus the
benchmark program in Release (into $CARGO_TARGET_DIR, default
.bench_build); later calls rebuild incrementally. Every call runs the
statistics self-tests, then the benchmark program, whose last stdout line
is the JSON result. Database files live in a per-run directory under the
build directory and are removed on exit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "explore_hot", "archive_cold")
RUN_TIMEOUT_S = 170


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def git_commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark program and self-tests; False on error."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Keep the compiler's temporary files inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2e_bench", "e2e_selftest"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no InsightNotes sources beside e2ebench/ (expected ../src); "
            "run from a full checkout")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(build_root)
    build_dir = os.path.join(build_root, "e2ebench")
    if not build(build_dir):
        return 2
    if subprocess.run([os.path.join(build_dir, "e2e_selftest")]).returncode != 0:
        log("statistics self-tests failed; refusing to benchmark")
        return 2

    data_dir = os.path.join(build_root, "data-%d" % os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    command = [os.path.join(build_dir, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", data_dir, "--commit", git_commit()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
