"""Result serialization.

Every result table (iterations.csv, summary.csv, load_points.csv and
analytical.csv) goes through one writer: a fixed column order, and each
number in one fixed rendering (`_fmt`, empty for None), so that runs with
the same master seed are byte-identical regardless of worker count.
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
    paths = [os.path.join(out_dir, name) for name in (
        "iterations.csv", "summary.csv", "load_points.csv", "run_metadata.json")]

    _write_table(paths[0], "iteration,ens_mwh,cens,saifi,saidi,caidi", (
        [str(i), _fmt(r.ens_mwh), _fmt(r.cens), _fmt(r.saifi), _fmt(r.saidi), _fmt(r.caidi)]
        for i, r in enumerate(reports)))

    rows = [[name, *map(_fmt, (s.mean, s.std, s.p5, s.p50, s.p95) if s else (None,) * 5)]
            for name, s in (("ens_mwh", summary.ens), ("cens", summary.cens),
                            ("saifi", summary.saifi), ("saidi", summary.saidi),
                            ("caidi", summary.caidi))]
    rows.append(["caidi_of_means", _fmt(summary.caidi_of_means), "", "", "", ""])
    _write_table(paths[1], "index,mean,std,p5,p50,p95", rows)

    rows = [(bus, *values) for bus, values in summary.load_points.items()]
    if summary.system_average is not None:
        rows.append(("system_average", *summary.system_average))
    write_load_points(paths[2], rows)

    with open(paths[3], "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def write_load_points(path, rows):
    """Write (name, failures per year, outage hours per year, r hours or None) rows."""
    _write_table(path, "load_point,lambda_per_year,outage_hours_per_year,r_hours",
                 ([name, _fmt(lam), _fmt(u), _fmt(r)] for name, lam, u, r in rows))


def _write_table(path, header, rows):
    """Write the `header` line, then each row of text cells as one CSV line."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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
