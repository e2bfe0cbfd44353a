#!/usr/bin/env python3
"""Check that the working tree writes the same results as a revision.

    python3 scripts/same_results.py REF [--iterations N] [--seed S]

Extracts the git revision REF with `git archive` into a temporary
directory, runs the byte-identity set of `gridrel simulate` commands (see
RUNS) and the closed form's commands on the 6-bus feeder (see
CLOSED_FORM_RUNS) with the source of REF and with the source of the working
tree, and prints each result file, stdout or stderr (where the warnings go)
that differs, with the rows of a CSV, stdout or stderr that differ. It then
runs the studies of LEDGER_STUDIES with each tree in its own process and
compares every iteration's full ledger (see LEDGER_FIELDS, events,
warnings and sweep counters included, every float to the bit), printing
the first iteration and field that differ in each study. REF runs under one
fixed PYTHONHASHSEED and the working tree under another (see HASH_SEEDS),
so a result that depends on the order of a set of ids differs too. Beside
its verdict it prints the line total of `src/gridrel/*.py` in REF and in
the working tree, as `wc -l` counts it. Exits 0 when every file is
byte-identical and every ledger equal, 1 otherwise.
"""

import argparse
import dataclasses
import filecmp
import glob
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
# the caller runs one share and a child process each other; 3 workers split
# the iterations unevenly
LEDGER_STUDIES += [("case4", 1.0, 2), ("case4", 1.0, 3)]
# a preset named with LIMITED runs on a feeder limited to LIMITED_FEEDER_MW,
# below the 2.888 MW that IEEE-33's demand bounds sum to, so grid-fed
# sub-systems are judged, take the grid shortcut and shed by the simplex
LIMITED, LIMITED_FEEDER_MW = "-limited", 2.0
LEDGER_STUDIES += [(case + LIMITED, increment_h, 1) for increment_h in (1.0, 0.25)
                   for case in ("case2", "case4")]
# a preset named with WEAK runs with every line's impedance times WEAK_Z_SCALE
# and its capacity WEAK_CAPACITY_MW, so the load-flow sweep runs, overloads
# take the repair pass, some sweeps do not converge and the simplex sheds
WEAK, WEAK_Z_SCALE, WEAK_CAPACITY_MW = "-weak", 6.0, 1.5
LEDGER_STUDIES += [(case + WEAK, 1.0, 1) for case in ("case2", "case4")]
# the sweep counters show a load-flow confirmation swept where it was
# certified, or the reverse, although the results stay the same
LEDGER_FIELDS = ("interruptions", "outage_hours", "ens_mwh", "events", "warnings",
                 "sweeps_certified", "sweeps_run")
# label -> the PYTHONHASHSEED its tree runs under; string hashes, and so the
# order of a set of ids, differ between the two
HASH_SEEDS = {"ref": "1", "tree": "2"}


def tree_env(tree, label):
    """The environment that runs `tree`'s source under `label`'s hash seed."""
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                PYTHONHASHSEED=HASH_SEEDS[label])


def gridrel(tree, label, out, args):
    """Run `gridrel` from `tree` with its source under `label`'s hash seed,
    and write its stdout and stderr, with `out` written as OUT, to
    `out`/stdout.txt and `out`/stderr.txt."""
    env = tree_env(tree, label)
    proc = subprocess.run([sys.executable, "-m", "gridrel", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"gridrel {args[0]} failed on {tree}:\n{proc.stderr}")
    os.makedirs(out, exist_ok=True)
    for name, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr)):
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text.replace(out, "OUT"))


def source_lines(tree):
    """Newlines in `tree`'s src/gridrel/*.py, the total `wc -l` prints."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "gridrel", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def result_files(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, files in os.walk(top) for f in files)


def differing_rows(a_path, b_path):
    """The (REF's, the tree's) lines that differ, a CSV's header left out."""
    with open(a_path) as fa, open(b_path) as fb:
        a, b = fa.read().splitlines(), fb.read().splitlines()
    start = 1 if a_path.endswith(".csv") else 0
    rows = [(x, y) for x, y in zip(a[start:], b[start:]) if x != y]
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
            spec = scenarios.apply_scenario(
                ieee33, case.removesuffix(LIMITED).removesuffix(WEAK))
            if case.endswith(LIMITED):
                spec = dataclasses.replace(spec, distribution_systems=tuple(
                    dataclasses.replace(d, feeder_capacity_mw=LIMITED_FEEDER_MW)
                    for d in spec.distribution_systems))
            if case.endswith(WEAK):
                spec = dataclasses.replace(spec, lines=tuple(
                    dataclasses.replace(l, r_pu=l.r_pu * WEAK_Z_SCALE, x_pu=l.x_pu * WEAK_Z_SCALE,
                                        capacity_mw=WEAK_CAPACITY_MW)
                    for l in spec.lines))
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
    A dict field's entries are its (key, value) items, and a counter is its
    own entry. Entries are compared by `repr`, which tells apart every two
    floats."""
    for i, (a, b) in enumerate(zip(ref, tree)):
        for name in LEDGER_FIELDS:
            x, y = (list(v.items()) if isinstance(v, dict) else v
                    for v in (a[name], b[name]))
            if repr(x) == repr(y):
                continue
            if isinstance(x, int):
                return i, name, x, y
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
        env = tree_env(tree, label)
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
                gridrel(tree, label, outs[label],
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
        ref_lines = source_lines(ref_tree)
    print("byte-identical" if not differ else f"{len(differ)} files differ")
    print("ledgers equal" if not ledgers_differ
          else f"ledgers differ in {len(ledgers_differ)} studies")
    print(f"src/gridrel/*.py: {ref_lines} lines in {args.ref}, "
          f"{source_lines(ROOT)} in the working tree")
    return 1 if differ or ledgers_differ else 0


if __name__ == "__main__":
    sys.exit(main())
