#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload graph-mem --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first call builds the simulator sources and the benchmark program into
.bench_build/perfbench (CMake); later calls rebuild only what changed.
The last line of stdout is the benchmark's JSON result. --self-test checks
determinism (repeated passes, traced replay and replay probes give identical
simulated statistics) and that every metric named in BENCHMARK.json is
reported and finite.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no simulator sources in {ROOT}/src")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def self_test():
    """Run the program's self-test and check metric names and values."""
    proc = subprocess.run([BINARY, "--self-test", "--reference", REFERENCE],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        log("self-test failed")
        return 1
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = result["ok"]
    for workload in (w["name"] for w in spec["workloads"]):
        for kind in ("end_to_end", "per_layer"):
            got = result["workloads"][workload][kind]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            bad = sorted(name for name, m in got.items()
                         if name in want and (m["unit"] != want[name] or
                                              not isinstance(m["value"], (int, float)) or
                                              not math.isfinite(m["value"])))
            good = not (missing or extra or bad)
            ok = ok and good
            print(f"  {'ok' if good else 'FAIL':4} {workload} {kind}: "
                  f"{len(got)} metrics" +
                  (f", missing {missing}" if missing else "") +
                  (f", unexpected {extra}" if extra else "") +
                  (f", bad unit or value {bad}" if bad else ""))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return self_test()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
