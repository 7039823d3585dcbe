#!/usr/bin/env python3
"""A/B the perfbench end-to-end metrics of a base revision and this tree.

Usage, from anywhere inside the repository:

    scripts/perf_ab.py <base-rev> --workload dense-offload --pairs 5 --seconds 40
    scripts/perf_ab.py <base-rev> --workload host-ooo,graph-mem,dense-offload

The base revision is exported (git archive) into a temporary directory
and built there once; the current working tree is the change side.
--workload takes one workload or a comma-separated list; the pairs of
each workload run in turn. Each pair runs both sides' perfbench once
with the same fresh seed, alternating which side goes first, so slow
drift of a shared host hits both sides equally. For each workload and
every end-to-end metric in BENCHMARK.json it prints the base and change
median [quartiles], the ratio of medians (change / base) and how many
pairs the change won, plus failed-job counts.

This takes W x N x 2 x (S + job setup) seconds plus two builds, so it
is a tool for measuring a change, not a CI stage.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def export_tree(root, rev, dest):
    """Write the files of @rev into @dest (no .git, no worktree entry)."""
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_perfbench(tree, workload, seed, seconds):
    """One perfbench run; returns its JSON result (the last stdout line)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} (seed {seed})")
    return json.loads(lines[-1])


def summary(values):
    """median [q1, q3] of a list of floats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    help="workload, or comma-separated workloads")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--first-seed", type=int,
                    help="seed of the first pair (default: random)")
    args = ap.parse_args()
    workloads = [w for w in args.workload.split(",") if w]
    if not workloads:
        ap.error("--workload names no workload")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    rev = subprocess.run(["git", "-C", root, "rev-parse", "--verify",
                          args.base + "^{commit}"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    first_seed = (args.first_seed if args.first_seed is not None
                  else random.SystemRandom().randrange(1000, 1_000_000))

    base_dir = tempfile.mkdtemp(prefix="perf_ab_")
    results = {w: {"base": [], "change": []} for w in workloads}
    try:
        export_tree(root, rev, base_dir)
        sides = {"base": base_dir, "change": root}
        for workload in workloads:
            for i in range(args.pairs):
                seed = first_seed + i
                order = (["base", "change"] if i % 2 == 0
                         else ["change", "base"])
                for side in order:
                    log(f"{workload} pair {i + 1}/{args.pairs}, "
                        f"seed {seed}: {side}")
                    result = run_perfbench(sides[side], workload, seed,
                                           args.seconds)
                    results[workload][side].append(result)
                    log(f"  {side}: " + ", ".join(
                        f"{m['name']} "
                        f"{result['metrics'][m['name']]['value']:.4g}"
                        for m in metrics) + f", failed {result['failed']}")
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    for workload in workloads:
        print_table(workload, results[workload], metrics, rev, args,
                    first_seed)
    return 0


def print_table(workload, results, metrics, rev, args, first_seed):
    """One workload's end-to-end comparison."""
    print(f"{workload}: base {rev[:10]} vs working tree, "
          f"{args.pairs} pairs of {args.seconds} s, seeds "
          f"{first_seed}-{first_seed + args.pairs - 1}")
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        lower = m["better"] == "lower"
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        bm, bq1, bq3 = summary(base)
        cm, cq1, cq3 = summary(change)
        ratio = cm / bm if bm else float("nan")
        print(f"  {name:16} {bm:.4g} [{bq1:.4g}, {bq3:.4g}] -> "
              f"{cm:.4g} [{cq1:.4g}, {cq3:.4g}] {m['unit']}  "
              f"x{ratio:.3f}  change won {wins}/{args.pairs}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"  failed jobs, {side}: {failed} of {attempted}")


if __name__ == "__main__":
    sys.exit(main())
