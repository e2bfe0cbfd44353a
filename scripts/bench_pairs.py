#!/usr/bin/env python3
"""Benchmark the working tree against a revision in alternating pairs.

    python3 scripts/bench_pairs.py REV --out BENCH_<n>.json [--workload W ...]
        [--pairs 10] [--seed 1901] [--trace 0|1]
        [--claim WORKLOAD:METRIC] [--change TEXT]

Extracts REV with `git archive` into a temporary directory, then runs
`perfbench/run.py --workload W --seed S --seconds N --trace T`, N the
run_seconds of BENCHMARK.json, once in that copy and once in the working
tree for each pair, at seeds S, S + 1, ...; the revision runs first in pairs
at an even position, the working tree in the others. It reads only the last line of each run's stdout (perfbench's result
object) and its `stamp` line, and changes nothing under `perfbench/`.

The file gets, per workload and metric, each side's median and quartiles
(numpy linear percentiles) over its runs, the runs themselves and the number
of pairs in which the working tree did better, in the metric's direction
from BENCHMARK.json. Untraced runs go under "workloads", traced ones under
"traced"; an existing file is updated, so both kinds can share it. With
--claim, "claimed" records whether the working tree did better in at least
9 of 10 pairs (scaled to the pair count) and whether the medians lie
further apart than the revision's quartile distance.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(tree, workload, seed, seconds, trace):
    """perfbench's result object and environment stamp for one run in `tree`."""
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()
    stamp = next(json.loads(line[6:]) for line in out if line.startswith("stamp "))
    return json.loads(out[-1]), stamp


def _side(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def _workload(results, declared, seeds):
    """The file's entry for one workload from its (revision, tree) result pairs."""
    metrics = {}
    for name, spec in declared.items():
        parent = [r["metrics"][name]["value"] for r, _ in results]
        change = [r["metrics"][name]["value"] for _, r in results]
        lower = spec["better"] == "lower"
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": _side(parent), "change": _side(change),
            "change_better_in_pairs": sum((c < p) if lower else (c > p)
                                          for p, c in zip(parent, change)),
            "change_over_parent_median": (float(np.median(change) / np.median(parent))
                                          if np.median(parent) else None),
        }
    return {
        "pairs": len(results), "seeds": seeds,
        "order": "pairs at an even position ran the revision first, odd ones the working "
                 "tree first",
        "correct": {"parent": all(r["correct"] for r, _ in results),
                    "change": all(r["correct"] for _, r in results)},
        "failed_of_attempted": {
            "parent": [sum(r["failed"] for r, _ in results),
                       sum(r["attempted"] for r, _ in results)],
            "change": [sum(r["failed"] for _, r in results),
                       sum(r["attempted"] for _, r in results)]},
        "metrics": metrics,
    }


def _claim(entry, workload, metric):
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    spread = parent["q3"] - parent["q1"]
    needed = -(-9 * entry["pairs"] // 10)
    apart = abs(parent["median"] - change["median"])
    return {
        "workload": workload, "metric": metric,
        "bound": f"change better in at least {needed} of {entry['pairs']} pairs, medians "
                 "apart by more than the parent's quartile distance",
        "result": f"{parent['median']:.4g} -> {change['median']:.4g} {m['unit']} "
                  f"({change['median'] / parent['median'] - 1.0:+.1%}), change better in "
                  f"{m['change_better_in_pairs']} of {entry['pairs']} pairs, parent quartiles "
                  f"{parent['q1']:.4g}-{parent['q3']:.4g} (distance {spread:.4g}, medians "
                  f"apart by {apart:.4g})",
        "met": m["change_better_in_pairs"] >= needed and apart > spread,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1901)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--change", help="what the working tree changes")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sha = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.update(parent_commit=sha, script="scripts/bench_pairs.py",
                  command=f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                          f"--seconds {seconds:g} --trace <0|1>")
    if args.change:
        record["change"] = args.change
    key = "traced" if args.trace else "workloads"
    seeds = list(range(args.seed, args.seed + args.pairs))
    with tempfile.TemporaryDirectory() as parent_tree:
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
        for workload in workloads:
            results = []
            for k, seed in enumerate(seeds):
                trees = [parent_tree, ROOT] if k % 2 == 0 else [ROOT, parent_tree]
                ran = {tree: _run(tree, workload, seed, seconds, args.trace) for tree in trees}
                parent, change = ran[parent_tree][0], ran[ROOT][0]
                results.append((parent, change))
                stamp = ran[ROOT][1]
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{name} {parent['metrics'][name]['value']:.4g} -> "
                    f"{change['metrics'][name]['value']:.4g}" for name in list(declared)[:2]),
                      flush=True)
            entry = _workload(results, declared, seeds)
            entry["trace"] = args.trace
            record.setdefault(key, {})[workload] = entry
            record["environment"] = {k: stamp.get(k) for k in
                                     ("cpu_model", "nproc", "python", "numpy")}
            # a claim is on end-to-end metrics, which traced runs do not record
            if args.claim and not args.trace and args.claim.split(":")[0] == workload:
                record["claimed"] = _claim(entry, *args.claim.split(":"))
            with open(args.out, "w") as fh:  # after each workload, so a cut run keeps it
                json.dump(record, fh, indent=1)
                fh.write("\n")
    if "claimed" in record:
        print(record["claimed"]["result"], "met" if record["claimed"]["met"] else "NOT met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
