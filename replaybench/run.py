#!/usr/bin/env python3
"""Builds and runs the ServingRuntime replay benchmark.

    python3 replaybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program from ../src with the benchmark's own CMake project (in
$CARGO_TARGET_DIR/replaybench, default .bench_build/replaybench), then
replaces itself with the untraced binary (--trace 0, end-to-end metrics) or
the traced binary (--trace 1, per-layer metrics). The binary's last stdout
line is the JSON result. Build output goes to stderr.

A layer interposer that no longer compiles or links (an API change in the
program) is dropped from the traced binary; the other layers keep their
spans and the untraced binary does not depend on any of them.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ["sim", "codec", "serialization", "linalg", "core"]


def quiet(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def configure(build_dir, layers):
    return quiet(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DREPLAY_TRACE_LAYERS=" + ";".join(layers)])


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return quiet(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])


def build_traced(build_dir):
    if build(build_dir, "replay_bench_traced"):
        return True
    survivors = [layer for layer in LAYERS
                 if configure(build_dir, [layer])
                 and build(build_dir, "replay_bench_traced")]
    print("replaybench: interposers that still build: %s (dropped: %s)"
          % (survivors, [l for l in LAYERS if l not in survivors]),
          file=sys.stderr)
    return configure(build_dir, survivors) and build(build_dir,
                                                     "replay_bench_traced")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(base), "replaybench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(build_dir, f))
                         for f in ("Makefile", "build.ninja"))
        if not configured and not configure(build_dir, LAYERS):
            sys.exit("replaybench: configure failed")
        if args.trace:
            ok = build_traced(build_dir)
        else:
            ok = build(build_dir, "replay_bench")
        if not ok:
            sys.exit("replaybench: build failed")

    binary = os.path.join(build_dir,
                          "replay_bench_traced" if args.trace else "replay_bench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", repr(args.seconds)])


if __name__ == "__main__":
    main()
