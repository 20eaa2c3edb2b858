#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <serve-read|serve-mixed|ingest-recover>
                             --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
engine and the benchmark (perfbench/CMakeLists.txt) into .bench_build (or
$CARGO_TARGET_DIR when set), then runs the arithmetic self-test; later runs
only rebuild what changed. The last line of standard output is the
benchmark's JSON result. Any build, self-test or run failure exits nonzero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-read", "serve-mixed", "ingest-recover")
# A run measures for --seconds and also sets up, warms up and checks; it
# must end well inside 180 seconds.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 600:
        p.error("--seconds must be in 1..600")
    return a


def build(root, build_dir):
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd, timeout):
    """Runs cmd, killing it after `timeout` seconds even when it hangs
    silently. Echoes every output line but the last, which it returns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if len(lines) > 1:
        print("\n".join(lines[:-1]), flush=True)
    return proc.returncode, lines[-1] if lines else None


def main():
    a = parse_args()
    root = Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").exists():
        fail("run from the repository root (perfbench/ not found)")
    if not (root / "src" / "CMakeLists.txt").exists():
        fail("engine sources (src/) not found; nothing to build")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(root, build_dir)
    if subprocess.call([str(build_dir / "perfbench_selftest")],
                       stdout=subprocess.DEVNULL) != 0:
        fail("arithmetic self-test failed")

    cmd = [str(build_dir / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    try:
        code, last = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    if code != 0 or last is None:
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("benchmark did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    want = expected_metrics(root, a.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: " +
             str(sorted(set(result["metrics"]) ^ want)))
    print(last, flush=True)


if __name__ == "__main__":
    main()
