#!/usr/bin/env python3
"""Builds and runs the silibench end-to-end benchmark of silicond.

    python3 silibench/run.py --workload warm_point --seed 1 --seconds 30 --trace 0
    python3 silibench/run.py --selftest

Run from the repository root.  The first run configures and builds
silicond and the benchmark client from source (CMake, the repository's
default build type) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only check the build is current.  Build output goes to
stderr, so the last line of stdout is always the result object printed by
the client.  Each workload's open-phase rate (and grid_explore's overlap
share) is read from its `why` in BENCHMARK.json, where it is recorded.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("silibench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, d)), "silibench")


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            if cmd[1] == "-S" and os.path.exists(os.path.join(out, "CMakeCache.txt")):
                # A failed configure must not pass for a good one next time.
                os.remove(os.path.join(out, "CMakeCache.txt"))
            fail("build failed: " + " ".join(cmd))
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def knobs(workload):
    """Open-phase rate and overlap share recorded in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        if w["name"] == workload:
            rate = re.search(r"open (\d+(?:\.\d+)?)/s", w["why"])
            overlap = re.search(r"overlap (\d*\.?\d+)", w["why"])
            if rate is None:
                fail("no 'open <rate>/s' in the why of " + workload)
            return rate.group(1), overlap.group(1) if overlap else "0"
    fail(workload + " is not a workload of BENCHMARK.json")


def run_child(cmd):
    # Own process group, so stopping it also stops any silicond it started:
    # on a timeout, and when this script is itself terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        out = build(["silibench_selftest"])
        sys.exit(run_child([os.path.join(out, "silibench_selftest")]))
    if not a.workload:
        fail("--workload is required")
    rate, overlap = knobs(a.workload)
    out = build(["silicond", "silibench"])
    sys.stdout.flush()
    sys.exit(run_child([
        os.path.join(out, "silibench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--silicond", os.path.join(out, "silicon", "tools", "silicond"),
        "--rate", rate,
        "--overlap", overlap,
        "--commit", source_id(),
    ]))


if __name__ == "__main__":
    main()
