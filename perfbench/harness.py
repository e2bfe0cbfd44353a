"""Workloads, the study pipeline and the two kinds of run.

A study is what `gridrel simulate` does for one scenario, through the same
public functions: parse the network file, read the profiles and costs, build
the ProfileSet, apply the scenario, build the network, run_monte_carlo,
iteration_report + aggregate, write_results. Untraced runs make studies at
seeds derived from the run's seed; traced runs wrap the layers and report
per-layer work and time.
"""

from __future__ import annotations

import logging
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from gridrel import engine, scenarios, shedding
from gridrel.indices import aggregate, iteration_report
from gridrel.netfile import parse_network_file
from gridrel.network import build_network
from gridrel.results import run_metadata, write_results
from gridrel.timeseries import (
    LOAD, PRODUCTION, ProfileSet, read_cost_table, read_timeseries_csv,
)

import checks
from envstamp import nproc, speed_probe_ms
from tracer import Tracer, wrap_gridrel

DEFAULT_SEED = 2024
MIN_STUDIES = 5
PROBE_REFERENCE_MS = 17.0
MIN_PAIRS = 2
MAX_POOL_WORKERS = 4
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")
WARNING_KINDS = (
    ("shedding_infeasible", "shedding infeasible"),
    ("loadflow_nonconverged", "load flow did not converge"),
    ("power_balance", "power balance residual"),
    ("loadflow_skipped", "load flow skipped"),
)


@dataclass(frozen=True)
class Workload:
    scenario: str
    iterations: int   # per study; the committed reference has this many
    pooled: bool


# Sizes keep one study near one second on a 2-core machine, so a run holds
# a few dozen studies, and every study at a seed of its own.
WORKLOADS = {
    "case2-islanded": Workload("case2", 25, pooled=False),
    "case3-automated": Workload("case3", 200, pooled=False),
    "case4-pool": Workload("case4", 100, pooled=True),
}


def pool_workers() -> int:
    """Every core, but at least two so the process pool is really used."""
    return min(max(2, nproc()), MAX_POOL_WORKERS)


def study_seed(seed: int, k: int) -> int:
    """Master seed of the k-th study of a run; the first one is the run's seed."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class LogTally(logging.Handler):
    """Counts the gridrel log records instead of letting them reach stderr.

    The bundled profiles span 336 h, so every setup logs one "wrapping
    cyclically" notice per series; those are counted. Any other record is
    unexpected and is still printed.
    """

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.wrapped = 0
        self._logger = logging.getLogger("gridrel")
        self._propagate = self._logger.propagate

    def emit(self, record):
        message = record.getMessage()
        if "wrapping cyclically" in message:
            self.wrapped += 1
        else:
            print(f"{record.levelname} {message}", file=sys.stderr)

    def __enter__(self):
        self._logger.addHandler(self)
        self._logger.propagate = False
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate
        return False


@dataclass
class Study:
    out_dir: str
    model: object
    profiles: object
    ledgers: list
    reports: list
    summary: object
    timings: dict
    wrapped_logs: int


def run_study(workload, seed, iterations, workers, out_dir, logs) -> Study:
    t0 = perf_counter()
    network_path = scenarios.bundled_network_path()
    spec = parse_network_file(network_path)
    t1 = perf_counter()
    wrapped_before = logs.wrapped
    load_series = read_timeseries_csv(scenarios.bundled_load_profiles_path(), LOAD)
    production_series = read_timeseries_csv(scenarios.bundled_wind_path(), PRODUCTION)
    cost_table = read_cost_table(scenarios.bundled_costs_path())
    config = engine.SimulationConfig(increment_h=1.0, horizon_h=8760.0,
                                     iterations=iterations, master_seed=seed,
                                     worker_count=workers)
    profiles = ProfileSet(config.increment_h, config.horizon_h,
                          load_series, production_series)
    t2 = perf_counter()
    model = build_network(scenarios.apply_scenario(spec, workload.scenario))
    t3 = perf_counter()
    ledgers = engine.run_monte_carlo(model, profiles, config, cost_table)
    t4 = perf_counter()
    reports = [iteration_report(l, cost_table) for l in ledgers]
    summary = aggregate(reports)
    t5 = perf_counter()
    meta = run_metadata(config, network_path, scenario=workload.scenario)
    write_results(out_dir, reports, summary, meta)
    t6 = perf_counter()
    timings = {"parse_s": t1 - t0, "profiles_s": t2 - t1, "build_s": t3 - t2,
               "setup_s": t3 - t0, "mc_s": t4 - t3, "report_s": t5 - t4,
               "write_s": t6 - t5, "study_s": t6 - t0,
               "ms_per_iter": 1000.0 * (t4 - t3) / iterations}
    return Study(out_dir, model, profiles, ledgers, reports, summary,
                 timings, logs.wrapped - wrapped_before)


class Gate:
    """Counts attempted and failed iterations and keeps every failure message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label, iterations, failed_iterations, problems):
        self.attempted += iterations
        self.failed += failed_iterations
        self.messages.extend(f"FAIL {label}: {p}" for p in problems)

    def run(self, label, workload, seed, iterations, workers, out_dir, logs,
            compare=None):
        """Run one study and check it. `compare(study)` returns study-level
        problems, which fail every iteration of the study."""
        try:
            study = run_study(workload, seed, iterations, workers, out_dir, logs)
        except Exception:  # a raising program is a counted failure
            self.record(label, iterations, iterations,
                        [f"raised\n{traceback.format_exc()}"])
            return None
        demand = checks.demand_energy_mwh(study.model, study.profiles)
        bad, problems = 0, []
        for i, (ledger, report) in enumerate(zip(study.ledgers, study.reports)):
            found = checks.iteration_failures(ledger, report, demand)
            bad += bool(found)
            problems.extend(f"iteration {i}: {p}" for p in found)
        study_level = checks.summary_failures(study.summary)
        if len(study.ledgers) != iterations:
            study_level.append(f"{len(study.ledgers)} ledgers for {iterations} iterations")
        if compare is not None:
            study_level += compare(study)
        if study_level:
            bad = iterations
        self.record(label, iterations, bad, problems + study_level)
        return study


def reference_gate(gate, name, workload, workers, out_root, logs):
    """Run the reference study at the default seed and compare it with the
    committed files, which come from a serial run."""
    ref = os.path.join(REFERENCE_DIR, name)
    gate.run(f"reference {name} seed {DEFAULT_SEED} workers {workers}", workload,
             DEFAULT_SEED, workload.iterations, workers,
             os.path.join(out_root, "reference"), logs,
             compare=lambda s: checks.compare_to_reference(s.out_dir, ref))


def _spread(values):
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "q3": q3}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(name, seed, seconds, out_root, logs, iterations=None):
    """Untraced run: the end-to-end metrics, as medians over studies.

    Studies at seeds derived from the run's seed repeat for `seconds`, at
    least MIN_STUDIES of them. The speed probe runs between studies, and each
    study's timings are scaled by PROBE_REFERENCE_MS over the mean of the
    probes before and after it: on a shared machine the speed of the CPU can
    drift by a third for minutes, and the scaled times report the program at
    one reference speed. The raw medians are returned in the details.
    """
    workload = WORKLOADS[name]
    n = iterations or workload.iterations
    workers = pool_workers() if workload.pooled else 1
    gate = Gate()
    reference_gate(gate, name, workload, workers, out_root, logs)

    keys = ("ms_per_iter", "study_s", "setup_s")
    raw, scaled, probes = [], [], [speed_probe_ms()]
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_STUDIES or perf_counter() < deadline:
        s = study_seed(seed, k)
        out_dir = os.path.join(out_root, "study0" if k == 0 else "study")
        study = gate.run(f"study {k} seed {s}", workload, s, n, workers, out_dir, logs)
        probes.append(speed_probe_ms())
        if study is not None:
            scale = PROBE_REFERENCE_MS / statistics.fmean(probes[-2:])
            raw.append({key: study.timings[key] for key in keys})
            scaled.append({key: study.timings[key] * scale for key in keys})
        k += 1

    if workload.pooled and raw:
        gate.run(f"serial counterpart of study 0 seed {seed}", workload, seed, n, 1,
                 os.path.join(out_root, "serial"), logs,
                 compare=lambda s: checks.compare_bytes(s.out_dir,
                                                        os.path.join(out_root, "study0")))

    metrics, details = {}, {"workers": workers, "iterations_per_study": n,
                            "speed_probe_ms_median": statistics.median(probes)}
    if scaled:
        for key in keys:
            metrics[key] = statistics.median(t[key] for t in scaled)
            details[key] = _spread([t[key] for t in scaled])
            details[f"{key}_unscaled"] = statistics.median(t[key] for t in raw)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, details, gate


def _warning_kind(message) -> str:
    for kind, text in WARNING_KINDS:
        if text in message:
            return kind
    return "other"


def _pair_metrics(tracer, plain, traced, pool, workers):
    layers = tracer.layers()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def layer(key):
        return layers.get(key, empty)

    values = tracer.values
    warnings = {f"engine.warnings.{k}": 0 for k, _ in WARNING_KINDS + (("other", ""),)}
    for ledger in traced.ledgers:
        for message in ledger.warnings:
            warnings[f"engine.warnings.{_warning_kind(message)}"] += 1
    lp = layer("shedding.lp")
    fbs = layer("loadflow.fbs")
    sectioning = values["sectioning_automated"]
    mc_s = traced.timings["mc_s"]
    out = {
        "engine.increments": layer("engine.run_increment")["calls"],
        "engine.run_increment_s": layer("engine.run_increment")["total_s"],
        "engine.self_s": layer("engine.run_increment")["self_s"],
        "engine.init_s": layer("engine.init")["total_s"],
        "engine.pool_efficiency": (plain.timings["mc_s"] / (workers * pool.timings["mc_s"])
                                   if pool is not None else 1.0),
        "engine.events": sum(len(l.events) for l in traced.ledgers),
        **warnings,
        "network.components_calls": layer("network.components")["calls"],
        "network.components_s": layer("network.components")["total_s"],
        "network.build_s": plain.timings["build_s"],
        "stochastic.sectioning_calls": layer("stochastic.sectioning")["calls"],
        "stochastic.sectioning_automated_frac": (sum(sectioning) / len(sectioning)
                                                 if sectioning else 0.0),
        "stochastic.status_draws": layer("stochastic.status_draw")["calls"],
        "shedding.lp_solves": lp["calls"],
        "shedding.lp_s": lp["total_s"],
        "shedding.lp_vars_mean": (statistics.fmean(values["lp_vars"])
                                  if values["lp_vars"] else 0.0),
        "shedding.build_s": layer("shedding.build")["total_s"],
        "shedding.infeasible": sum(s != shedding.OPTIMAL for s in values["lp_status"]),
        "loadflow.fbs_solves": fbs["calls"],
        "loadflow.fbs_s": fbs["total_s"],
        "loadflow.fbs_iters_mean": (statistics.fmean(values["fbs_iterations"])
                                    if values["fbs_iterations"] else 0.0),
        "loadflow.nonconverged": sum(not c for c in values["fbs_converged"]),
        "loadflow.min_voltage_pu": min(values["fbs_min_voltage_pu"], default=0.0),
        "netfile.parse_s": plain.timings["parse_s"],
        "timeseries.profiles_s": plain.timings["profiles_s"],
        "timeseries.wrapped_profiles": plain.wrapped_logs,
        "indices.report_s": plain.timings["report_s"],
        "results.write_s": plain.timings["write_s"],
        "trace.overhead_ratio": mc_s / plain.timings["mc_s"],
        "trace.coverage": (layer("engine.init")["total_s"]
                           + layer("engine.run_increment")["total_s"]) / mc_s,
    }
    return out, layer("engine.iteration")["durations"], lp["durations"]


def trace(name, seed, seconds, out_root, logs, iterations=None):
    """Traced run: per-layer metrics from pairs of untraced and traced
    studies of the same iterations, as medians over the pairs. Times are
    scaled to the reference speed like those of `measure`."""
    workload = WORKLOADS[name]
    n = iterations or workload.iterations
    workers = pool_workers() if workload.pooled else 1
    gate = Gate()
    reference_gate(gate, name, workload, workers, out_root, logs)

    pairs, plain_scaled, iteration_s, lp_s = [], [], [], []
    probes = [speed_probe_ms()]
    plain_dir = os.path.join(out_root, "plain")
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_PAIRS or perf_counter() < deadline:
        k += 1
        plain = gate.run(f"untraced pair {k}", workload, seed, n, 1, plain_dir, logs)
        if plain is None:
            continue
        same_as_plain = lambda s: checks.compare_bytes(s.out_dir, plain_dir)  # noqa: E731
        with Tracer() as tracer:
            wrap_gridrel(tracer, engine, shedding)
            traced = gate.run(f"traced pair {k}", workload, seed, n, 1,
                              os.path.join(out_root, "traced"), logs, same_as_plain)
        pool = None
        if workload.pooled:
            pool = gate.run(f"pool pair {k} workers {workers}", workload, seed, n,
                            workers, os.path.join(out_root, "pool"), logs, same_as_plain)
        probes.append(speed_probe_ms())
        if traced is None or (workload.pooled and pool is None):
            continue
        scale = PROBE_REFERENCE_MS / statistics.fmean(probes[-2:])
        plain_scaled.append({key: plain.timings[key] * scale
                             for key in ("ms_per_iter", "study_s", "setup_s")})
        metrics, iterations_here, lps_here = _pair_metrics(tracer, plain, traced,
                                                           pool, workers)
        pairs.append({key: value * scale if key.endswith("_s") else value
                      for key, value in metrics.items()})
        iteration_s += [d * scale for d in iterations_here]
        lp_s += [d * scale for d in lps_here]

    if not pairs:
        return {}, {}, gate
    out = {key: statistics.median(p[key] for p in pairs) for key in pairs[0]}
    out["engine.iter_ms_p50"] = 1000.0 * float(np.percentile(iteration_s, 50))
    out["engine.iter_ms_p99"] = 1000.0 * float(np.percentile(iteration_s, 99))
    out["shedding.lp_ms_p50"] = 1000.0 * float(np.percentile(lp_s, 50)) if lp_s else 0.0
    out["check.failed_frac"] = gate.failed / gate.attempted
    untraced = {key: statistics.median(t[key] for t in plain_scaled)
                for key in plain_scaled[0]}
    untraced["peak_rss_mb"] = peak_rss_mb()
    details = {"pairs": len(pairs), "iterations_per_study": n, "workers": workers,
               "traced_iterations": len(iteration_s), "traced_lps": len(lp_s),
               "untraced": untraced}
    return out, details, gate
