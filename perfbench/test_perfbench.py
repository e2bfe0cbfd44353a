"""The benchmark's own tests, at a tiny iteration count:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import checks  # noqa: E402
import harness  # noqa: E402
from gridrel import engine, shedding  # noqa: E402
from gridrel.engine import HistoryLedger  # noqa: E402
from gridrel.indices import iteration_report  # noqa: E402
from tracer import Tracer, wrap_gridrel  # noqa: E402

TINY = ["--iterations", "3", "--seconds", "0", "--seed", "5"]


def _run(capsys, *argv):
    assert run.main([*argv, *TINY]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _wrapped_names():
    sim = engine.SequentialSimulation
    return {
        "run_iteration": engine.run_iteration,
        "__init__": sim.__dict__["__init__"],
        "run_increment": sim.__dict__["run_increment"],
        "connected_components": engine.connected_components,
        "plan_sectioning": engine.plan_sectioning,
        "draw_status": engine.draw_status,
        "solve_fbs": engine.solve_fbs,
        "build_shedding_problem": shedding.build_shedding_problem,
        "solve_shedding": shedding.solve_shedding,
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, "--workload", workload, "--trace", trace)
    declared = run.declared_metrics(trace == "1")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
    # a traced run also prints the end-to-end metrics of its untraced studies
    printed = declared + (run.declared_metrics(False) if trace == "1" else [])
    for m in printed:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert any(line.startswith("stamp ") for line in lines)


def test_traced_run_restores_every_wrapped_name(capsys):
    before = _wrapped_names()
    _, result = _run(capsys, "--workload", "case2-islanded", "--trace", "1")
    assert result["metrics"]["shedding.lp_solves"]["value"] > 0
    assert _wrapped_names() == before


def test_tracer_restores_when_the_traced_code_raises():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            wrap_gridrel(tracer, engine, shedding)
            assert engine.solve_fbs is not before["solve_fbs"]
            raise RuntimeError("boom")
    assert _wrapped_names() == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    layers = tracer.layers()
    assert layers["outer"]["self_s"] == pytest.approx(6.0)
    assert layers["inner"]["calls"] == 2
    assert layers["inner"]["total_s"] == pytest.approx(4.0)
    assert layers["inner"]["self_s"] == pytest.approx(3.0)


def test_tampered_reference_trips_the_gate(capsys, tmp_path, monkeypatch):
    reference = tmp_path / "case3-automated"
    shutil.copytree(os.path.join(harness.REFERENCE_DIR, "case3-automated"), reference)
    path = reference / "summary.csv"
    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[1] = repr(float(fields[1]) * 1.001)
    rows[1] = ",".join(fields)
    path.write_text("\n".join(rows) + "\n")

    monkeypatch.setattr(harness, "REFERENCE_DIR", str(tmp_path))
    lines, result = _run(capsys, "--workload", "case3-automated", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == harness.WORKLOADS["case3-automated"].iterations
    assert any(line.startswith("FAIL reference") and "summary.csv:2" in line
               for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case3-automated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_invariant_checks_flag_impossible_years():
    ledger = HistoryLedger(load_points=("B1", "B2"), customers={"B1": 1, "B2": 1},
                           categories={}, horizon_h=10.0, increment_h=1.0)
    ledger.interruptions["B1"] = 1.0
    ledger.outage_hours["B1"] = 11.0
    ledger.ens_mwh["B2"] = 2.5
    report = iteration_report(ledger)
    problems = checks.iteration_failures(ledger, report, {"B1": 5.0, "B2": 2.0})
    assert any(p.startswith("B1: outage") for p in problems)
    assert any(p.startswith("B2: ENS") for p in problems)
    wrong_caidi = dataclasses.replace(report, caidi=report.caidi * 2)
    assert any(p.startswith("CAIDI") for p in
               checks.iteration_failures(ledger, wrong_caidi, {"B1": 5.0, "B2": 3.0}))
