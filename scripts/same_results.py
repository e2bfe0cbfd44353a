#!/usr/bin/env python3
"""Check that the working tree writes the same result files as a revision.

    python3 scripts/same_results.py REF [--iterations N] [--seed S]

Extracts the git revision REF with `git archive` into a temporary
directory, runs the byte-identity set of `gridrel simulate` commands (see
RUNS) with the source of REF and with the source of the working tree, and
prints each result file that differs, with the `iterations.csv` rows that
differ. Exits 0 when every file is byte-identical, 1 otherwise.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> `gridrel simulate` arguments besides seed, iterations and output
RUNS = {
    "hourly": ["--scenario", "case1..case4", "--workers", "2"],
    "half-hourly": ["--scenario", "case3,case4", "--increment", "30min",
                    "--workers", "2"],
    "five-minute": ["--scenario", "case1,case3", "--increment", "5min",
                    "--workers", "2"],
    # sub-hour islands with wind and batteries step through the general path
    "quarter-hourly": ["--scenario", "case2,case4", "--increment", "15min",
                       "--workers", "2"],
    # relative to each tree, so each runs its own copy of the 6-bus feeder
    "validation6": ["--network", "src/gridrel/data/validation6.net", "--workers", "2"],
}


def simulate(tree, out, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "gridrel", "simulate", *args, "--out", out],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(f"gridrel simulate failed on {tree}:\n{proc.stderr}")


def result_files(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, files in os.walk(top) for f in files)


def differing_rows(a_path, b_path):
    with open(a_path) as fa, open(b_path) as fb:
        a, b = fa.read().splitlines(), fb.read().splitlines()
    rows = [(x, y) for x, y in zip(a[1:], b[1:]) if x != y]
    rows += [(x, "") for x in a[len(b):]] + [("", y) for y in b[len(a):]]
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against")
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = os.path.join(tmp, "ref")
        os.mkdir(ref_tree)
        archive = subprocess.Popen(["git", "archive", args.ref], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", ref_tree], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            parser.error(f"git archive {args.ref} failed")

        differ = []
        for name, run_args in RUNS.items():
            common = [*run_args, "--seed", str(args.seed),
                      "--iterations", str(args.iterations)]
            outs = {}
            for label, tree in (("ref", ref_tree), ("tree", ROOT)):
                outs[label] = os.path.join(tmp, label + "-" + name)
                simulate(tree, outs[label], common)
            files = sorted(set(result_files(outs["ref"])) | set(result_files(outs["tree"])))
            for rel in files:
                a, b = os.path.join(outs["ref"], rel), os.path.join(outs["tree"], rel)
                if os.path.exists(a) and os.path.exists(b) and filecmp.cmp(a, b, shallow=False):
                    continue
                differ.append(rel)
                print(f"{name}/{rel} differs")
                if rel.endswith("iterations.csv") and os.path.exists(a) and os.path.exists(b):
                    for x, y in differing_rows(a, b):
                        print(f"  - {x}\n  + {y}")
            print(f"{name}: {len(files)} files compared", file=sys.stderr)
    print("byte-identical" if not differ else f"{len(differ)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
