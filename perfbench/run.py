#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload study_cold --seed 42 --seconds 20 --trace 0

Builds perfbench/bench.exe (and refproc.exe, which it starts next to
its set-up probes) with dune into .bench_build, runs it in a
fresh scratch directory under .bench_build, and passes its report
through.  The last stdout line is the result JSON; it is printed only
when its metrics are exactly the ones BENCHMARK.json declares for the
run's mode.  The exit code is the benchmark's: 0 when every output
check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["study_cold", "serve_warm", "paper_figs"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = declared(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items()))
    return None


def stop_group(pgid):
    """Kills whatever is left in the benchmark's process group (a
    daemon orphaned by a crash) and waits until the group is gone."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(cmd):
    """Runs the benchmark in its own process group, so a timeout also
    stops the daemon it starts; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        die("timed out after %d s" % RUN_TIMEOUT_S, 3)
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "descriptions", "BENCHMARK.json"):
        if not os.path.exists(needed):
            die("run from the root of a MicroTools checkout (%s is missing)" % needed, 2)
    if shutil.which("dune") is None:
        die("dune is not on PATH", 2)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/bench.exe", "./perfbench/refproc.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        die("build failed", 2)

    work = os.path.join(BUILD_DIR, "perfbench-work", "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(work)
    try:
        code, out = run_bench(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    if not lines:
        die("the benchmark printed nothing (exit %d)" % code, code or 3)
    print("\n".join(lines[:-1]), flush=True)
    try:
        problem = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problem = "unreadable result line (%s): %r" % (e, lines[-1][:200])
    if problem:
        die(problem, 3)
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
