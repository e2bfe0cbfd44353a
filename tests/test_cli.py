import json
import os
import subprocess
import sys

import pytest

from gridrel import engine, scenarios
from gridrel.cli import main

from conftest import CHAIN4


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_usage_error_exit_code(capsys):
    assert main(["simulate", "--no-such-flag"]) == 1
    assert main([]) == 1


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("[nonsense]\nx=1\n")
    assert main(["simulate", "--network", str(bad), "--iterations", "1"]) == 2


def _edited_bundled(tmp_path, network, old, new):
    """A copy of a bundled network with `old` replaced once, and its line."""
    text = _read(os.path.join(os.path.dirname(__file__), "..", "src", "gridrel", "data",
                              network)).decode()
    net = tmp_path / network
    net.write_text(text.replace(old, new, 1))
    return net, text[:text.index(old)].count("\n") + 1


@pytest.mark.parametrize("network, old, new, message", [
    ("ieee33.net", "base_mva = 10", "base_mva = 0", "field 'base_mva': must be > 0"),
    # ieee33.net gives its impedances in ohms, which the voltage base scales
    ("ieee33.net", "base_kv = 12.66", "base_kv = 0", "field 'base_kv': must be > 0"),
    ("validation6.net", "base_mva = 10", "base_mva = -10", "field 'base_mva': must be > 0"),
    ("validation6.net", "VB2 customers=25 ", "VB2 customers=25.7 ",
     "field 'customers': not a whole number: '25.7'"),
    ("ieee33.net", "transformer=yes", "transformer=on",
     "field 'transformer': must be yes, no, true, false, 1 or 0, got 'on'"),
    ("ieee33.net", "sw_rate=12 new_signal=2s", "sw_rate=12 new_signal=-2s",
     "field 'new_signal': must be >= 0"),
    ("ieee33.net", "manual=0.3h p_new_signal=0.9", "manual=0.3h p_new_signal=1.5",
     "field 'p_new_signal': must be in [0, 1]"),
])
@pytest.mark.parametrize("command", [
    ["simulate", "--iterations", "1"], ["analytical"], ["validate", "--iterations", "1"]])
def test_a_bad_bundled_field_is_an_error_at_its_line(command, network, old, new, message,
                                                     tmp_path, capsys):
    net, lineno = _edited_bundled(tmp_path, network, old, new)
    out = tmp_path / "out"
    argv = [*command, "--network", str(net)]
    assert main(argv if command[0] == "validate" else [*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {net}:{lineno}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("network, old, new, violation", [
    ("ieee33.net", "hw_rate=0.2", "hw_rate=-0.2",
     "controller 'CTRL' hardware: failure rate must be >= 0"),
    ("ieee33.net", "hw_repair=2.5h", "hw_repair=-2.5h",
     "controller 'CTRL' hardware: repair time must be > 0 when the failure rate is > 0"),
    ("ieee33.net", "sw_rate=12", "sw_rate=-12",
     "controller 'CTRL' software: failure rate must be >= 0"),
    ("validation6.net", "dist DS1 root=VB1", "dist DS1 root=VB1 feeder_capacity_mw=-1",
     "distribution system 'DS1': feeder capacity must be >= 0"),
])
def test_an_out_of_range_bundled_value_is_refused(network, old, new, violation,
                                                 tmp_path, capsys):
    net, _ = _edited_bundled(tmp_path, network, old, new)
    out = tmp_path / "out"
    assert main(["simulate", "--network", str(net), "--iterations", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"error: invalid network:\n  {violation}\n")
    assert not out.exists()


def test_missing_file_exit_code(capsys):
    assert main(["simulate", "--network", "/does/not/exist.net"]) == 2


@pytest.mark.parametrize("command", ["simulate", "analytical"])
@pytest.mark.parametrize("flag", ["--manual-sectioning", "--automated-sectioning"])
def test_negative_sectioning_time_is_a_usage_error(command, flag, tmp_path, capsys):
    assert main([command, f"{flag}=-1h", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: sectioning times must be >= 0\n"
    assert not os.listdir(tmp_path)


def test_simulate_is_deterministic_byte_for_byte(tmp_path, capsys):
    net = tmp_path / "chain.net"
    net.write_text(CHAIN4.replace("rate=0", "rate=0.4"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["simulate", "--network", str(net), "--iterations", "30",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    for name in ("iterations.csv", "summary.csv", "load_points.csv",
                 "run_metadata.json"):
        assert _read(out_a / name) == _read(out_b / name), name


@pytest.mark.parametrize("args", [
    ["--scenario", "case1..case4", "--workers", "2", "--iterations", "20"],
    ["--scenario", "case2", "--increment", "15min", "--iterations", "5"],
], ids=["hourly-2-workers", "case2-15min"])
def test_simulate_writes_the_same_bytes_under_any_hash_seed(args, tmp_path):
    # string hashes, and so the order of a set of ids, change with the seed
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    results = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "gridrel", "simulate", *args,
                               "--seed", "2024", "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        results.append(({f: _read(out / f) for f in files},
                        proc.stdout.replace(str(out), "OUT")))
    assert results[0][0]  # every result file, by name
    assert results[0] == results[1]


def test_simulate_bundled_scenarios_write_result_sets(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "case1,case3", "--iterations", "3",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    for case in ("case1", "case3"):
        assert (tmp_path / case / "iterations.csv").exists()
        meta = json.loads(_read(tmp_path / case / "run_metadata.json"))
        assert meta["scenario"] == case
        assert meta["master_seed"] == 3
        assert "modeling_assumptions" in meta
    rows = _read(tmp_path / "case1" / "iterations.csv").decode().strip().splitlines()
    assert rows[0] == "iteration,ens_mwh,cens,saifi,saidi,caidi"
    assert len(rows) == 4


def test_scenario_range_syntax(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "case1..case2", "--iterations", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "case1").is_dir() and (tmp_path / "case2").is_dir()


def test_analytical_prints_report(tmp_path, capsys):
    rc = main(["analytical"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SAIFI 2.7200" in out
    assert "SAIDI 8.8300" in out


def test_analytical_writes_one_row_per_load_point(tmp_path, capsys):
    path = tmp_path / "out" / "analytical.csv"
    assert main(["analytical", "--network", scenarios.bundled_validation_path(),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.endswith(f"  wrote {path}\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "load_point,lambda_per_year,outage_hours_per_year,r_hours"
    assert [row.split(",")[0] for row in lines[1:]] == ["VB2", "VB3", "VB4", "VB5", "VB6"]


def test_analytical_rejects_active_network(capsys, caplog):
    # ieee33.net names load and wind profiles that no CSV gives here; the
    # network is refused before any warning about them, by both commands
    # that evaluate the closed form
    network = os.path.join(os.path.dirname(__file__), "..", "src", "gridrel", "data",
                           "ieee33.net")
    for command in ("analytical", "validate"):
        assert main([command, "--network", network]) == 2
        assert capsys.readouterr().err == (
            "error: analytical evaluation needs a passive network "
            "(no production units, batteries or ICT)\n")
    assert caplog.messages == []


def test_validate_prints_comparison_table(capsys):
    rc = main(["validate", "--iterations", "150", "--seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Analytical" in out and "Simulation" in out and "Difference [%]" in out
    for row in ("SAIFI", "SAIDI", "CAIDI", "ENS"):
        assert row in out


def test_simulate_subhourly_increment(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "case1", "--iterations", "2",
               "--increment", "30min", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "case1" / "summary.csv").exists()


def test_simulate_reports_warnings_by_kind_on_stderr(tmp_path, capsys):
    net = tmp_path / "forced.net"
    net.write_text(CHAIN4.replace("rate=0", "rate=2")
                   + "[production]\nG bus=B3 min_mw=5 max_mw=6\n")
    rc = main(["simulate", "--network", str(net), "--iterations", "3",
               "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err
    line = next(l for l in err.splitlines() if l.startswith("run: warnings: "))
    counts = dict(item.rsplit(" ", 1)
                  for item in line[len("run: warnings: "):].split(", "))
    assert list(counts) == ["shedding infeasible", "load flow non-converged",
                            "power balance", "other"]
    assert int(counts["shedding infeasible"]) > 0
    assert counts["other"] == "0"
    meta = json.loads(_read(tmp_path / "out" / "run_metadata.json"))
    assert "warnings" not in json.dumps(meta)


_RESIDENTIAL_CHAIN = CHAIN4.replace("category=general", "category=residential")


def test_simulate_prices_only_load_points_with_a_load(tmp_path, capsys):
    # B3 keeps its customers but has no load, so no cost category: its ENS
    # is always 0 and the cost table needs no entry for it
    net = tmp_path / "chain.net"
    net.write_text(_RESIDENTIAL_CHAIN.replace(
        "B3 customers=10 load_mw=0.3 load_mvar=0.07 category=residential",
        "B3 customers=10"))
    rc = main(["simulate", "--network", str(net), "--iterations", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "iterations.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_rejects_a_cost_table_missing_a_load_category(tmp_path, capsys,
                                                              monkeypatch, workers):
    # the table is checked when the run is compiled, before any iteration
    def no_iteration(*args, **kwargs):
        pytest.fail("an iteration ran before the cost table was checked")

    monkeypatch.setattr(engine, "run_iteration", no_iteration)
    net = tmp_path / "chain.net"
    net.write_text(_RESIDENTIAL_CHAIN.replace(
        "B3 customers=10 load_mw=0.3 load_mvar=0.07 category=residential",
        "B3 customers=10 load_mw=0.3 load_mvar=0.07 category=industrial"))
    costs = tmp_path / "costs.csv"
    argv = ["simulate", "--network", str(net), "--costs", str(costs),
            "--iterations", "5", "--workers", workers, "--out", str(tmp_path / "out")]
    costs.write_text("category,cost_per_mwh\nresidential,10\n")
    assert main(argv) == 2
    assert "error: no interruption cost for category 'industrial'" in capsys.readouterr().err
    # a header alone prices nothing
    costs.write_text("category,cost_per_mwh\n")
    assert main(argv) == 2
    assert f"error: {costs}: empty cost table" in capsys.readouterr().err


def test_simulate_refuses_a_negative_interruption_cost_at_its_line(tmp_path, capsys):
    # islands would shed a negatively priced load on purpose
    net = tmp_path / "chain.net"
    net.write_text(_RESIDENTIAL_CHAIN)
    costs = tmp_path / "costs.csv"
    costs.write_text("category,cost_per_mwh\n# per MWh not served\nresidential,-5\n")
    argv = ["simulate", "--network", str(net), "--costs", str(costs),
            "--iterations", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {costs}:3: cost must be >= 0, got '-5'\n"
    costs.write_text("category,cost_per_mwh\n# per MWh not served\nresidential,0\n")
    assert main(argv) == 0


def _residential_feeder6(tmp_path):
    """The bundled 6-bus feeder with every load on a profile no CSV gives."""
    text = _read(os.path.join(os.path.dirname(__file__), "..", "src", "gridrel",
                              "data", "validation6.net")).decode()
    net = tmp_path / "residential6.net"
    net.write_text(text.replace("profile=flat", "profile=residential"))
    return str(net)


@pytest.mark.parametrize("command", [
    ["simulate", "--iterations", "2"], ["analytical"], ["validate", "--iterations", "2"]])
def test_every_command_warns_about_a_missing_load_profile(command, tmp_path, capsys, caplog):
    argv = [*command, "--network", _residential_feeder6(tmp_path)]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert ("no load profile for residential; using a flat multiplier of 1"
            in caplog.messages)


def test_validate_reports_warnings_by_kind_on_stderr(tmp_path, capsys):
    rc = main(["validate", "--network", _residential_feeder6(tmp_path),
               "--iterations", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "run: warnings: shedding infeasible 0, load flow non-converged 0, "
        "power balance 0, other 0")
    assert "run: warnings" not in captured.out
