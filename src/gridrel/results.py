"""Result serialization.

All files use a fixed column order and a fixed float rendering so that runs
with the same master seed are byte-identical regardless of worker count.
Wall-clock data deliberately stays out of the result files.
"""

from __future__ import annotations

import json
import os


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.10g}"


def write_results(out_dir, reports, summary, metadata) -> list:
    """Write per-iteration, aggregate and per-load-point tables plus metadata.

    `reports` are IterationIndices in iteration order, `summary` the
    aggregated IndexReport. Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "iterations.csv")
    with open(path, "w", newline="") as fh:
        fh.write("iteration,ens_mwh,cens,saifi,saidi,caidi\n")
        for i, r in enumerate(reports):
            fh.write(",".join([str(i), _fmt(r.ens_mwh), _fmt(r.cens), _fmt(r.saifi),
                               _fmt(r.saidi), _fmt(r.caidi)]) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w", newline="") as fh:
        fh.write("index,mean,std,p5,p50,p95\n")
        for name, stats in (("ens_mwh", summary.ens), ("cens", summary.cens),
                            ("saifi", summary.saifi), ("saidi", summary.saidi),
                            ("caidi", summary.caidi)):
            if stats is None:
                fh.write(f"{name},,,,,\n")
            else:
                fh.write(",".join([name, _fmt(stats.mean), _fmt(stats.std),
                                   _fmt(stats.p5), _fmt(stats.p50),
                                   _fmt(stats.p95)]) + "\n")
        fh.write(f"caidi_of_means,{_fmt(summary.caidi_of_means)},,,,\n")
    written.append(path)

    path = os.path.join(out_dir, "load_points.csv")
    rows = [(bus, *values) for bus, values in summary.load_points.items()]
    if summary.system_average is not None:
        rows.append(("system_average", *summary.system_average))
    write_load_points(path, rows)
    written.append(path)

    path = os.path.join(out_dir, "run_metadata.json")
    with open(path, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def write_load_points(path, rows):
    """Write a load-point table: one (name, failure rate per year, outage
    hours per year, mean outage duration in hours or None) row each."""
    with open(path, "w", newline="") as fh:
        fh.write("load_point,lambda_per_year,outage_hours_per_year,r_hours\n")
        for name, lam, u, r in rows:
            fh.write(",".join([name, _fmt(lam), _fmt(u), _fmt(r)]) + "\n")


def run_metadata(config, network_path, scenario=None) -> dict:
    return {
        "network_file": os.path.basename(str(network_path)),
        "scenario": scenario,
        "master_seed": config.master_seed,
        "iterations": config.iterations,
        "increment_h": config.increment_h,
        "horizon_h": config.horizon_h,
        # the worker count is deliberately absent: results are identical for
        # any parallelization, and the files must be too
        "automated_sectioning_h": config.automated_sectioning_h,
        "manual_sectioning_h": config.manual_sectioning_h,
        "modeling_assumptions": {
            "ict_success_probabilities": (
                "new-signal/reboot success probabilities come from the network "
                "file (bundled default 0.9; not a measured value)"),
            "partial_shedding": (
                "partial shedding accrues energy-not-supplied only; "
                "interruption counts and outage hours require the load point "
                "to be fully unserved"),
            "interruption_counting": (
                "one interruption per transition into a fully-unserved state"),
            "phase_quantization": (
                "sectioning/repair phases last whole increments "
                "(floor of duration / increment); sub-increment residue is dropped"),
            "battery_market": (
                "grid-connected batteries idle; SOC is re-drawn uniformly at "
                "each islanding onset"),
        },
    }
