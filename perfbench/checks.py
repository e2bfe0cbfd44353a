"""Correctness gate: committed references, simulation invariants, and
byte identity between runs that must agree.

Reference files are compared field by field. Numbers must agree within
REL_TOL relative or ABS_TOL absolute; the files render floats with 10
significant digits, so REL_TOL admits a last-digit flip from reordered
floating-point sums and nothing larger. The metadata must be equal.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-8
ABS_TOL = 1e-9
RESULT_TABLES = ("iterations.csv", "summary.csv", "load_points.csv")
RESULT_FILES = RESULT_TABLES + ("run_metadata.json",)
_SLACK = 1e-9


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _same_field(a, b) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    except ValueError:
        return False


def compare_to_reference(got_dir, ref_dir) -> list:
    """Mismatches between a result directory and a reference directory."""
    problems = []
    for name in RESULT_TABLES:
        got, ref = _rows(os.path.join(got_dir, name)), _rows(os.path.join(ref_dir, name))
        if len(got) != len(ref):
            problems.append(f"{name}: {len(got)} rows, reference has {len(ref)}")
            continue
        for lineno, (g, r) in enumerate(zip(got, ref), start=1):
            if len(g) != len(r) or not all(map(_same_field, g, r)):
                problems.append(f"{name}:{lineno}: {','.join(g)} != reference "
                                f"{','.join(r)}")
    with open(os.path.join(got_dir, "run_metadata.json")) as fh:
        got_meta = json.load(fh)
    with open(os.path.join(ref_dir, "run_metadata.json")) as fh:
        ref_meta = json.load(fh)
    if got_meta != ref_meta:
        keys = sorted(k for k in got_meta.keys() | ref_meta.keys()
                      if got_meta.get(k) != ref_meta.get(k))
        problems.append(f"run_metadata.json differs in {', '.join(keys)}")
    return problems


def compare_bytes(dir_a, dir_b) -> list:
    """Result files that are not byte-identical between two directories."""
    problems = []
    for name in RESULT_FILES:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs")
    return problems


def demand_energy_mwh(model, profiles) -> dict:
    """Energy each load point asks for over the horizon, from the profiles."""
    n, dt = profiles.n_increments, profiles.increment_h
    per_profile = {}
    out = {}
    for b in model.load_points:
        load = model.buses[b].load
        if load is None:
            out[b] = 0.0
            continue
        if load.profile not in per_profile:
            per_profile[load.profile] = sum(
                profiles.load_multiplier(load.profile, t) for t in range(n)) * dt
        out[b] = load.peak_mw * per_profile[load.profile]
    return out


def iteration_failures(ledger, report, demand_mwh) -> list:
    """Invariants every simulated year must satisfy."""
    problems = []
    for b in ledger.load_points:
        if not 0.0 <= ledger.outage_hours[b] <= ledger.horizon_h + _SLACK:
            problems.append(f"{b}: outage {ledger.outage_hours[b]} h outside "
                            f"[0, {ledger.horizon_h}] h")
        if not -_SLACK <= ledger.ens_mwh[b] <= demand_mwh[b] * (1 + _SLACK) + _SLACK:
            problems.append(f"{b}: ENS {ledger.ens_mwh[b]} MWh outside "
                            f"[0, {demand_mwh[b]}] MWh")
    if report.saifi == 0:
        if report.caidi is not None:
            problems.append(f"CAIDI {report.caidi} with SAIFI 0")
    elif report.caidi is None or not math.isclose(
            report.caidi, report.saidi / report.saifi, rel_tol=1e-12):
        problems.append(f"CAIDI {report.caidi} != SAIDI/SAIFI "
                        f"{report.saidi / report.saifi}")
    return problems


def summary_failures(summary) -> list:
    saidi, saifi = summary.saidi.mean, summary.saifi.mean
    if saifi == 0:
        ok = summary.caidi_of_means is None
    else:
        ok = (summary.caidi_of_means is not None
              and math.isclose(summary.caidi_of_means, saidi / saifi, rel_tol=1e-12))
    return [] if ok else [f"caidi_of_means {summary.caidi_of_means} != "
                          f"mean SAIDI / mean SAIFI"]
