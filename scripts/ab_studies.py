#!/usr/bin/env python3
"""Time cold studies of a revision and the working tree, interleaved in one process.

    python3 scripts/ab_studies.py REV --scenario S --iterations N --studies K

Extracts REV with `git archive` into a temporary directory and imports its
`gridrel` and the working tree's under the package names `gridrel_rev` and
`gridrel_tree` (every import inside the package is relative, so the two stay
apart). Each tree parses the bundled IEEE-33 inputs and profiles once, with
preset S at a 1 h increment; then, for each master seed 100, 101, ...,
100 + K - 1, both run a cold study of N iterations on one worker (`run_monte_carlo`, which
compiles a fresh `TopologyCache`), in alternating order, and their ledgers
must be equal. It prints each side's median ms per iteration, the median of
the per-study ratios (working tree over REV) and the number of studies in
which the working tree was faster.

Interleaved studies in one process share whatever drift the machine has, so
the ratio is steadier than runs in separate processes. These numbers are for
development; claims come from `scripts/bench_pairs.py`.
"""

import argparse
import importlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import(name, src):
    """The `gridrel` package under `src` imported as `name`."""
    path = os.path.join(src, "gridrel")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class _Tree:
    """One tree's package and its parsed inputs for a preset."""

    def __init__(self, name, src, scenario):
        pkg = _import(name, src)
        for sub in ("engine", "scenarios", "timeseries"):
            setattr(self, sub, importlib.import_module(f"{name}.{sub}"))
        sc, ts = self.scenarios, self.timeseries
        spec = pkg.parse_network_file(sc.bundled_network_path())
        self.model = pkg.build_network(sc.apply_scenario(spec, scenario))
        self.profiles = ts.ProfileSet(
            1.0, 8760.0, ts.read_timeseries_csv(sc.bundled_load_profiles_path(), ts.LOAD),
            ts.read_timeseries_csv(sc.bundled_wind_path(), ts.PRODUCTION))
        self.costs = ts.read_cost_table(sc.bundled_costs_path())

    def study(self, seed, iterations):
        """(ms per iteration, ledgers) of one cold study."""
        config = self.engine.SimulationConfig(iterations=iterations, master_seed=seed)
        t0 = perf_counter()
        ledgers = self.engine.run_monte_carlo(self.model, self.profiles, config, self.costs)
        return 1000.0 * (perf_counter() - t0) / iterations, ledgers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--studies", type=int, required=True)
    args = parser.parse_args(argv)

    sha = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as rev_root:
        archive = subprocess.run(["git", "archive", sha, "src/gridrel"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", rev_root], input=archive, check=True)
        rev = _Tree("gridrel_rev", os.path.join(rev_root, "src"), args.scenario)
        tree = _Tree("gridrel_tree", os.path.join(ROOT, "src"), args.scenario)
        rev.study(99, 2), tree.study(99, 2)  # warm both before timing
        times = {rev: [], tree: []}
        for k in range(args.studies):
            seed = 100 + k
            first, second = (rev, tree) if k % 2 == 0 else (tree, rev)
            ms_first, ledgers_first = first.study(seed, args.iterations)
            ms_second, ledgers_second = second.study(seed, args.iterations)
            times[first].append(ms_first)
            times[second].append(ms_second)
            if [vars(l) for l in ledgers_first] != [vars(l) for l in ledgers_second]:
                print(f"ledgers differ at master seed {seed}")
                return 1
    ratios = [t / r for r, t in zip(times[rev], times[tree])]
    wins = sum(t < r for r, t in zip(times[rev], times[tree]))
    print(f"{args.scenario}, {args.studies} cold studies of {args.iterations} iterations, "
          f"ledgers equal")
    print(f"ms/iter median: {sha[:7]} {np.median(times[rev]):.4f}, "
          f"working tree {np.median(times[tree]):.4f}")
    print(f"median ratio (working tree / {sha[:7]}) {np.median(ratios):.4f}, "
          f"working tree faster in {wins} of {args.studies}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
