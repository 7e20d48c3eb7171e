#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call builds the library and
the perfbench binary from source into .bench_build/perfbench (CMake,
Release); later calls reuse the build. The binary runs with
DRS_THREADS=1: every host-time number is a one-thread number, and the
run is refused when DRS_THREADS asks for more threads than the host
has processors.

The binary's own report lines are passed through; the last line of
stdout is one JSON object with correct, attempted, failed and metrics,
each metric carrying the unit BENCHMARK.json declares for it. The exit
code is non-zero when the build fails, when a correctness check fails,
or when the metrics printed differ from those BENCHMARK.json declares.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# The seed a run uses when none is given (perfbench/README.md names
# the held-out seed for re-checking claims).
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build once; a file lock serialises concurrent runs."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the checkout.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = [
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j2"],
            ]
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-30:]))
                    fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the checkout root (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    nproc = os.cpu_count() or 1
    threads = os.environ.get("DRS_THREADS", "1")
    if not threads.isdigit() or not 1 <= int(threads) <= nproc:
        fail("DRS_THREADS=%s is outside 1..%d (nproc)" % (threads, nproc))

    binary = build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, DRS_THREADS="1")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(args.trace),
         "--out", out_dir],
        stdout=subprocess.PIPE, env=env, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("the benchmark printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("the benchmark's last line is not a result (exit %d)"
             % proc.returncode)
    if set(result["metrics"]) != set(units):
        fail("metrics printed %s differ from those declared %s"
             % (sorted(result["metrics"]), sorted(units)))
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(result["metrics"].items())}
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
