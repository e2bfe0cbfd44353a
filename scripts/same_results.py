#!/usr/bin/env python3
"""Check that the working tree writes the same results as a revision.

    python3 scripts/same_results.py REF [--iterations N] [--seed S]

Extracts the git revision REF with `git archive` into a temporary
directory, runs the byte-identity set of `gridrel simulate` commands (see
RUNS) and the closed form's commands on the 6-bus feeder (see
CLOSED_FORM_RUNS) with the source of REF and with the source of the working
tree, and prints each result file or stdout that differs, with the rows of
a CSV or stdout that differ. It then runs the studies of LEDGER_STUDIES with each tree in its
own process and compares every iteration's full ledger (see LEDGER_FIELDS,
events and warnings included, every float to the bit), printing the first
iteration and field that differ in each study. Exits 0 when every file is
byte-identical and every ledger equal, 1 otherwise.
"""

import argparse
import filecmp
import os
import pickle
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FEEDER6 = "src/gridrel/data/validation6.net"
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
    "validation6": ["--network", FEEDER6, "--workers", "2"],
}
# name -> all `gridrel` arguments, "{out}" standing for the output directory
# and "{seed}" for the seed: the closed form, and its comparison table
CLOSED_FORM_RUNS = {
    "analytical": ["analytical", "--network", FEEDER6, "--out", "{out}"],
    "validate": ["validate", "--network", FEEDER6, "--iterations", "400", "--seed", "{seed}"],
}

# (preset, or "validation6" for the 6-bus feeder, increment in hours, workers)
# whose ledgers are compared, each run at the given seed and iterations
LEDGER_STUDIES = [(case, increment_h, 1) for increment_h in (1.0, 0.25)
                  for case in ("case1", "case2", "case3", "case4")]
# dark islands run longest at sub-hour increments
LEDGER_STUDIES += [("case2", 1.0 / 12.0, 1), ("case4", 1.0 / 12.0, 1), ("validation6", 1.0, 1)]
# the process pool receives the compiled run
LEDGER_STUDIES += [("case4", 1.0, 2)]
LEDGER_FIELDS = ("interruptions", "outage_hours", "ens_mwh", "events", "warnings")


def gridrel(tree, out, args):
    """Run `gridrel` from `tree` with its source, and write its stdout, with
    `out` written as OUT, to `out`/stdout.txt."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "gridrel", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"gridrel {args[0]} failed on {tree}:\n{proc.stderr}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "stdout.txt"), "w") as fh:
        fh.write(proc.stdout.replace(out, "OUT"))


def result_files(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, files in os.walk(top) for f in files)


def differing_rows(a_path, b_path):
    with open(a_path) as fa, open(b_path) as fb:
        a, b = fa.read().splitlines(), fb.read().splitlines()
    rows = [(x, y) for x, y in zip(a[1:], b[1:]) if x != y]
    rows += [(x, "") for x in a[len(b):]] + [("", y) for y in b[len(a):]]
    return rows


def dump_ledgers(out, seed, iterations):
    """Run LEDGER_STUDIES with the gridrel on the import path, inputs read
    as `gridrel simulate` reads them, and pickle each iteration's
    LEDGER_FIELDS, as plain values, to the file `out`."""
    from gridrel import engine, scenarios
    from gridrel.netfile import parse_network_file
    from gridrel.network import build_network
    from gridrel.timeseries import (
        LOAD, PRODUCTION, ProfileSet, read_cost_table, read_timeseries_csv,
    )

    ieee33 = parse_network_file(scenarios.bundled_network_path())
    loads = read_timeseries_csv(scenarios.bundled_load_profiles_path(), LOAD)
    wind = read_timeseries_csv(scenarios.bundled_wind_path(), PRODUCTION)
    costs = read_cost_table(scenarios.bundled_costs_path())
    feeder6 = parse_network_file(scenarios.bundled_validation_path())
    feeder6_costs = {b.load.category: 1.0 for b in feeder6.buses if b.load is not None}
    studies = {}
    for case, increment_h, workers in LEDGER_STUDIES:
        if case == "validation6":
            spec, profiles, cost_table = feeder6, ProfileSet(increment_h, 8760.0), feeder6_costs
        else:
            spec = scenarios.apply_scenario(ieee33, case)
            profiles, cost_table = ProfileSet(increment_h, 8760.0, loads, wind), costs
        config = engine.SimulationConfig(increment_h=increment_h, iterations=iterations,
                                         master_seed=seed, worker_count=workers)
        ledgers = engine.run_monte_carlo(build_network(spec), profiles, config, cost_table)
        studies[f"{case}@{increment_h:g}h/{workers}w"] = [
            {name: getattr(ledger, name) for name in LEDGER_FIELDS} for ledger in ledgers]
    with open(out, "wb") as fh:
        pickle.dump(studies, fh)


def first_ledger_difference(ref, tree):
    """(iteration, field, REF's entry, the tree's entry) at the first
    difference between two studies' ledgers, or None when they are equal.
    A dict field's entries are its (key, value) items. Entries are compared
    by `repr`, which tells apart every two floats."""
    for i, (a, b) in enumerate(zip(ref, tree)):
        for name in LEDGER_FIELDS:
            x, y = (list(v.items()) if isinstance(v, dict) else v
                    for v in (a[name], b[name]))
            if repr(x) == repr(y):
                continue
            j = next((j for j, (p, q) in enumerate(zip(x, y)) if repr(p) != repr(q)),
                     min(len(x), len(y)))
            return (i, name, x[j] if j < len(x) else None,
                    y[j] if j < len(y) else None)
    return None


def compare_ledgers(ref_tree, tmp, seed, iterations) -> list:
    """Dump the ledgers of both trees, each in its own process, and print
    the first difference of each study; return the studies that differ."""
    procs = {}
    for label, tree in (("ref", ref_tree), ("tree", ROOT)):
        out = os.path.join(tmp, f"ledgers-{label}.pickle")
        code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'scripts')!r}); "
                f"import same_results; same_results.dump_ledgers({out!r}, {seed}, "
                f"{iterations})")
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        procs[label] = (out, subprocess.Popen([sys.executable, "-c", code], cwd=tree,
                                              env=env, stderr=subprocess.PIPE, text=True))
    studies = {}
    for label, (out, proc) in procs.items():
        _, err = proc.communicate()
        if proc.returncode:
            sys.exit(f"ledger run failed on {label}:\n{err}")
        with open(out, "rb") as fh:
            studies[label] = pickle.load(fh)
    differ = []
    for study, ref in studies["ref"].items():
        found = first_ledger_difference(ref, studies["tree"][study])
        print(f"ledgers {study}: {len(ref)} iterations compared", file=sys.stderr)
        if found is not None:
            i, name, x, y = found
            differ.append(study)
            print(f"ledgers {study}: iteration {i} differs in {name}\n"
                  f"  - {x!r}\n  + {y!r}")
    return differ


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
        runs = {name: ["simulate", *run_args, "--seed", "{seed}",
                       "--iterations", str(args.iterations), "--out", "{out}"]
                for name, run_args in RUNS.items()}
        runs.update(CLOSED_FORM_RUNS)
        for name, run_args in runs.items():
            outs = {}
            for label, tree in (("ref", ref_tree), ("tree", ROOT)):
                outs[label] = os.path.join(tmp, label + "-" + name)
                gridrel(tree, outs[label],
                        [a.format(out=outs[label], seed=args.seed) for a in run_args])
            files = sorted(set(result_files(outs["ref"])) | set(result_files(outs["tree"])))
            for rel in files:
                a, b = os.path.join(outs["ref"], rel), os.path.join(outs["tree"], rel)
                if os.path.exists(a) and os.path.exists(b) and filecmp.cmp(a, b, shallow=False):
                    continue
                differ.append(rel)
                print(f"{name}/{rel} differs")
                if rel.endswith((".csv", ".txt")) and os.path.exists(a) and os.path.exists(b):
                    for x, y in differing_rows(a, b):
                        print(f"  - {x}\n  + {y}")
            print(f"{name}: {len(files)} files compared", file=sys.stderr)
        ledgers_differ = compare_ledgers(ref_tree, tmp, args.seed, args.iterations)
    print("byte-identical" if not differ else f"{len(differ)} files differ")
    print("ledgers equal" if not ledgers_differ
          else f"ledgers differ in {len(ledgers_differ)} studies")
    return 1 if differ or ledgers_differ else 0


if __name__ == "__main__":
    sys.exit(main())
