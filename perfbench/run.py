#!/usr/bin/env python3
"""IsoPredict benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign|stream|serve --seed N \
        --seconds S --trace 0|1

Builds the library, isopredict_server and the benchmark program from the
repository's sources into .bench_build/perfbench (incrementally), runs the
benchmark's self-test, then runs one workload. The program prints every
metric by name with its unit and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The exit code is the
program's: 0 when every verdict checked out, 1 when one was wrong.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
STATE_ROOT = os.path.join(BUILD_DIR, "state")
REQUIRED_SOURCES = ["src/predict/PredictSession.h",
                    "examples/isopredict_server.cpp"]
# Where the benchmark program's sources live (CMakeLists.txt).
COMPILED_SOURCES = ["src", "examples/isopredict_server.cpp", "perfbench"]
# Every run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "isobench", "isopredict_server", "ledger_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)


def source_digest():
    """A digest of every compiled source file, paths and contents."""
    files = []
    for top in COMPILED_SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if f.endswith((".cpp", ".h")) or f == "CMakeLists.txt")
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def run_bounded(cmd, limit_s):
    """Runs cmd in its own process group; kills the group past limit_s."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s and was stopped" % limit_s, 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "stream", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED_SOURCES
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("IsoPredict sources not found next to perfbench/: missing %s"
             % ", ".join(missing))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    start = time.monotonic()
    if subprocess.call([os.path.join(BUILD_DIR, "ledger_selftest")],
                       stdout=subprocess.DEVNULL) != 0:
        fail("ledger_selftest failed: the benchmark's own logic is broken", 3)

    # Exact-repeat logs compare runs of identical code only: the state
    # directory is keyed by the compiled sources.
    state_dir = os.path.join(STATE_ROOT, source_digest())
    os.makedirs(state_dir, exist_ok=True)
    sys.stdout.flush()
    code = run_bounded([
        os.path.join(BUILD_DIR, "isobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
        "--state-dir", state_dir,
        "--server-bin", os.path.join(BUILD_DIR, "isopredict_server"),
    ], RUN_LIMIT_S - (time.monotonic() - start))
    sys.exit(code)


if __name__ == "__main__":
    main()
