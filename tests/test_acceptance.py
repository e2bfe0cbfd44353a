"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The Monte Carlo criteria use the bundled configurations and fixed seeds;
the oracle criteria compare the solvers against independent references
(HiGHS for the shedding LP, a damped Newton AC solve for the sweep).
"""

import math
import os
import time

import numpy as np
import pytest

from gridrel.analytical import analytical_indices
from gridrel.engine import (
    ScriptedFault, SimulationConfig, TopologyCache, run_iteration, run_monte_carlo,
)
from gridrel.indices import aggregate, caidi, iteration_report
from gridrel.loadflow import LoadFlowProblem, solve_fbs
from gridrel.netfile import parse_network_text
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario
from gridrel.shedding import OPTIMAL, build_shedding_problem, solve_shedding
from gridrel.stochastic import (
    MANUAL, NEW_SIGNAL, REBOOT, RepairPhases, ict_repair_duration,
)
from gridrel.timeseries import ProfileSet

from conftest import CHAIN4
from oracles import newton_ac, random_shedding_instance, reference_shedding

WORKERS = min(8, os.cpu_count() or 1)


def _report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- 1. index identities against the published tables ------------------------

def test_criterion_1_caidi_identities():
    pairs = [
        (9.9317, 5.4205, 1.8322),
        (9.8626, 5.3633, 1.8389),
        (7.6166, 1.0915, 6.9781),
        (7.5903, 1.0894, 6.9674),
    ]
    ok = all(abs(caidi(sd, sf) - expected) < 5e-4 for sd, sf, expected in pairs)
    ok = ok and abs(caidi(3.61, 0.248) - 14.55) < 1e-2
    _report(1, "index identity reproduction", ok)


# -- 2. scenario ordering on the bundled feeder -------------------------------

def test_criterion_2_scenario_ordering(ieee33_spec, bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=2000, master_seed=2024,
                              worker_count=WORKERS)
    t0 = time.time()
    means = {}
    for case in ("case1", "case2", "case3", "case4"):
        model = build_network(apply_scenario(ieee33_spec, case))
        ledgers = run_monte_carlo(model, profiles, config, cost_table)
        agg = aggregate([iteration_report(l, cost_table) for l in ledgers])
        means[case] = (agg.ens.mean, agg.saifi.mean)
        print(f"  {case}: ENS {agg.ens.mean:8.4f}  SAIFI {agg.saifi.mean:7.4f}  "
              f"({time.time() - t0:5.1f}s elapsed)")
    ens = {c: means[c][0] for c in means}
    saifi = {c: means[c][1] for c in means}
    ordering = ens["case4"] < ens["case3"] < ens["case2"] < ens["case1"]
    ict_drop = max(saifi["case3"], saifi["case4"]) < 0.4 * min(saifi["case1"],
                                                               saifi["case2"])
    elapsed = time.time() - t0
    print(f"  total {elapsed:.1f}s on {WORKERS} workers")
    _report(2, "scenario ordering and ICT SAIFI drop", ordering and ict_drop)


# -- 3. Monte Carlo converges to the closed form ------------------------------

def test_criterion_3_analytical_convergence(validation6):
    mean_loads = {b: validation6.buses[b].load.peak_mw
                  for b in validation6.load_points}
    analytical = analytical_indices(validation6, mean_loads, sectioning_h=1.0)

    t0 = time.time()
    config = SimulationConfig(iterations=8000, master_seed=99,
                              worker_count=WORKERS)
    profiles = ProfileSet(1.0, 8760.0)
    ledgers = run_monte_carlo(validation6, profiles, config)
    reports = [iteration_report(l, {"general": 1.0}) for l in ledgers]
    elapsed = time.time() - t0

    series = {
        "SAIFI": (np.array([r.saifi for r in reports]), analytical.saifi),
        "SAIDI": (np.array([r.saidi for r in reports]), analytical.saidi),
        "ENS": (np.array([r.ens_mwh for r in reports]), analytical.ens_mwh),
    }
    ok = True
    for name, (values, truth) in series.items():
        mc = values.mean()
        rel = abs(mc - truth) / truth
        print(f"  {name}: MC {mc:.4f} vs analytical {truth:.4f} "
              f"({100 * rel:.2f}% off)")
        ok = ok and rel < 0.03
        # error envelope and 1/sqrt(N) scaling of the standard error
        sems = {}
        for n in (500, 2000, 8000):
            sems[n] = values[:n].std(ddof=1) / math.sqrt(n)
            ok = ok and abs(values[:n].mean() - truth) < 4.5 * sems[n] + 1e-9
        ratio = sems[500] / sems[8000]
        print(f"  {name}: SEM ratio 500->8000 = {ratio:.2f} (expect ~4)")
        ok = ok and 2.0 <= ratio <= 8.0
    print(f"  {config.iterations} iterations in {elapsed:.1f}s")
    ok = ok and elapsed < 120.0
    _report(3, "analytical convergence with 1/sqrt(N) decay", ok)


# -- 4. shedding LP equals an independent reference ---------------------------

def test_criterion_4_shedding_oracle_equivalence():
    rng = np.random.default_rng(4242)
    ok = True
    optimal_checked = 0
    for _ in range(1000):
        nodes, demand, cost, gens, lines = random_shedding_instance(rng)
        res = solve_shedding(build_shedding_problem(nodes, demand, cost,
                                                    gens, lines))
        status, objective = reference_shedding(nodes, demand, cost, gens, lines)
        if status == "infeasible":
            ok = ok and res.status != OPTIMAL
            continue
        optimal_checked += 1
        ok = ok and res.status == OPTIMAL
        ok = ok and abs(res.objective - objective) < 1e-6
        ok = ok and _feasible(nodes, demand, gens, lines, res)
        if not ok:
            break
    print(f"  {optimal_checked} optimal instances matched HiGHS to 1e-6")
    _report(4, "shedding LP oracle equivalence (1000 instances)", ok)


def _feasible(nodes, demand, gens, lines, res):
    balance = {b: -demand.get(b, 0.0) + res.shed_mw[b] for b in nodes}
    for b in nodes:
        if not -1e-9 <= res.shed_mw[b] <= demand.get(b, 0.0) + 1e-6:
            return False
    for gid, bus, gmin, gmax, *_ in gens:
        out = res.generation_mw[gid]
        if not gmin - 1e-6 <= out <= gmax + 1e-6:
            return False
        balance[bus] += out
    for lid, frm, to, cap in lines:
        flow = res.line_flow_mw[lid]
        if abs(flow) > cap + 1e-6:
            return False
        balance[frm] -= flow
        balance[to] += flow
    return all(abs(v) < 1e-6 for v in balance.values())


# -- 5. sweep equals a damped Newton AC solution ------------------------------

def test_criterion_5_fbs_oracle_equivalence(ieee33):
    rng = np.random.default_rng(555)
    ok = True
    for _ in range(40):
        n = int(rng.integers(2, 7))
        buses = [f"B{i}" for i in range(n)]
        edges = []
        for i in range(1, n):
            parent = buses[int(rng.integers(0, i))]
            z = complex(rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05))
            edges.append((f"L{i}", parent, buses[i], z))
        injections = {b: complex(rng.uniform(0, 0.08), rng.uniform(0, 0.04))
                      for b in buses[1:]}
        prob = LoadFlowProblem.from_tree(buses[0], edges, injections, 10.0)
        sol = solve_fbs(prob, tolerance=1e-12, max_iter=100)
        oracle = newton_ac(buses, edges, injections, buses[0])
        ok = ok and sol.converged
        ok = ok and all(abs(sol.voltage_pu[b] - abs(oracle[b])) < 1e-6
                        for b in buses)
        if not ok:
            break
    print("  40 random trees matched the Newton oracle to 1e-6 p.u.")

    # full 33-bus base case: power balance at 10x the voltage tolerance
    base = ieee33.base_mva
    injections = {}
    for b in ieee33.bus_ids:
        load = ieee33.buses[b].load
        injections[b] = (complex(load.peak_mw, load.peak_mvar) / base
                         if load else 0j)
    edges = [(l.id, l.from_bus, l.to_bus, complex(l.r_pu, l.x_pu))
             for l in ieee33.lines.values()]
    tol = 1e-8
    sol = solve_fbs(LoadFlowProblem.from_tree("B01", edges, injections, base),
                    tolerance=tol)
    total_load = sum(l.load.peak_mw for l in ieee33.buses.values() if l.load)
    residual_pu = abs(sol.slack_mw - total_load - sol.losses_mw) / base
    print(f"  IEEE-33 balance residual {residual_pu:.2e} p.u. "
          f"(limit {10 * tol:.0e})")
    ok = ok and sol.converged and residual_pu < 10 * tol
    _report(5, "FBS oracle equivalence and power balance", ok)


# -- 6. deterministic timelines and staged ICT recovery -----------------------

def test_criterion_6_scripted_timelines():
    model = build_network(parse_network_text(CHAIN4))
    config = SimulationConfig(increment_h=1.0, horizon_h=48.0, iterations=1,
                              master_seed=0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(1.0, 48.0), config), 0,
                           script=[ScriptedFault(10.0, "L2")])
    timeline_ok = (ledger.outage_hours == {"B2": 1.0, "B3": 5.0, "B4": 5.0})

    phases = RepairPhases(new_signal_h=2 / 3600, reboot_h=5 / 60,
                          manual_repair_h=0.3)

    class Fixed:
        def __init__(self, seq):
            self.seq = list(seq)

        def random(self):
            return self.seq.pop(0)

    d1 = ict_repair_duration(phases, Fixed([0.0]))
    d2 = ict_repair_duration(phases, Fixed([1.0, 0.0]))
    d3 = ict_repair_duration(phases, Fixed([1.0, 1.0]))
    branches_ok = (d1 == (2 / 3600, NEW_SIGNAL)
                   and d2 == (2 / 3600 + 5 / 60, REBOOT)
                   and d3 == (2 / 3600 + 5 / 60 + 0.3, MANUAL))
    _report(6, "scripted fault timeline and staged recovery durations",
            timeline_ok and branches_ok)


# -- 7. determinism across worker counts --------------------------------------

def test_criterion_7_parallel_byte_identical(tmp_path):
    from gridrel.cli import main

    out = {}
    for workers in (1, 8):
        target = tmp_path / f"w{workers}"
        rc = main(["simulate", "--scenario", "case4", "--iterations", "16",
                   "--seed", "31", "--workers", str(workers),
                   "--out", str(target)])
        assert rc == 0
        out[workers] = {
            name: (target / "case4" / name).read_bytes()
            for name in ("iterations.csv", "summary.csv", "load_points.csv",
                         "run_metadata.json")
        }
    same = all(out[1][k] == out[8][k] for k in out[1])
    _report(7, "byte-identical results for 1 and 8 workers", same)
