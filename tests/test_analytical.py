from dataclasses import replace

import pytest

from gridrel.analytical import ActiveComponentsError, _dark, analytical_indices
from gridrel.engine import ScriptedFault, SimulationConfig, TopologyCache, run_iteration
from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario, bundled_network_path, bundled_validation_path
from gridrel.timeseries import ProfileSet

from conftest import CHAIN4, TIE
from oracles import reference_isolation

SINGLE_LINE = """
[network]
id = ONE
[systems]
dist DS1 root=A
[buses]
A customers=0
B customers=10 load_mw=0.5 category=general
[lines]
L1 from=A to=B r_pu=0.01 x_pu=0.01 capacity_mw=2 rate=0.07 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
"""

# a chain with no disconnector: nothing cuts a fault off from the breaker
BREAKER_ONLY = """
[network]
id = ABC
[systems]
dist DS1 root=A
[buses]
A customers=0
B customers=10 load_mw=0.5 category=general
C customers=10 load_mw=0.5 category=general
[lines]
L1 from=A to=B r_pu=0.01 x_pu=0.01 capacity_mw=2 rate=0.1 repair=4h
L2 from=B to=C r_pu=0.01 x_pu=0.01 capacity_mw=2 rate=0.1 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
"""

# hand-computed expectations for the bundled 6-bus validation feeder
VALID6_LAMBDA = {"VB2": 2.7, "VB3": 2.7, "VB4": 2.8, "VB5": 2.7, "VB6": 2.7}
VALID6_U = {"VB2": 4.7, "VB3": 9.5, "VB4": 11.9, "VB5": 8.9, "VB6": 10.9}
VALID6_SAIFI = 2.72
VALID6_SAIDI = 8.83
VALID6_ENS = 10.97


def test_single_line_pure_repair_exposure():
    from gridrel.network import build_network
    model = build_network(parse_network_text(SINGLE_LINE))
    # a feeder with one line has nothing to section: zero sectioning policy
    report = analytical_indices(model, {"B": 0.5}, sectioning_h=0.0)
    assert report.lambda_i["B"] == pytest.approx(0.07)
    assert report.u_i["B"] == pytest.approx(0.28)
    assert report.r_i["B"] == pytest.approx(4.0)


def test_upstream_bus_gets_only_sectioning_exposure(chain4):
    report = analytical_indices(chain4, {}, sectioning_h=1.0)
    # chain rates are zero except when overridden; rebuild with a failing L2
    text = CHAIN4.replace(
        "L2 from=B2 to=B3 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h",
        "L2 from=B2 to=B3 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0.2 repair=4h")
    from gridrel.network import build_network
    model = build_network(parse_network_text(text))
    report = analytical_indices(model, {}, sectioning_h=1.0)
    assert report.u_i["B2"] == pytest.approx(0.2 * 1.0)       # sectioning only
    assert report.u_i["B3"] == pytest.approx(0.2 * (1 + 4))   # isolated for repair
    assert report.u_i["B4"] == pytest.approx(0.2 * (1 + 4))


def test_zero_rates_give_zero_report(chain4):
    report = analytical_indices(chain4, {"B2": 0.2}, sectioning_h=1.0)
    assert report.saifi == 0.0
    assert report.saidi == 0.0
    assert report.ens_mwh == 0.0
    assert report.caidi is None


def test_validation_feeder_hand_values(validation6):
    mean_loads = {b: validation6.buses[b].load.peak_mw
                  for b in validation6.load_points}
    report = analytical_indices(validation6, mean_loads, sectioning_h=1.0)
    for b, expected in VALID6_LAMBDA.items():
        assert report.lambda_i[b] == pytest.approx(expected, rel=1e-12)
    for b, expected in VALID6_U.items():
        assert report.u_i[b] == pytest.approx(expected, rel=1e-12)
    assert report.saifi == pytest.approx(VALID6_SAIFI, rel=1e-12)
    assert report.saidi == pytest.approx(VALID6_SAIDI, rel=1e-12)
    assert report.caidi == pytest.approx(VALID6_SAIDI / VALID6_SAIFI, rel=1e-12)
    assert report.ens_mwh == pytest.approx(VALID6_ENS, rel=1e-12)


def test_active_components_rejected(ieee33):
    with pytest.raises(ActiveComponentsError):
        analytical_indices(ieee33, {}, sectioning_h=1.0)


def _with_only_failing(spec, line_id, rate):
    """`spec` with `line_id` failing at `rate` and every other line never."""
    return replace(spec, lines=tuple(
        replace(line, reliability=replace(line.reliability,
                                          failure_rate=rate if line.id == line_id else 0.0))
        for line in spec.lines))


ISOLATION_SPECS = {
    "ieee33": lambda: parse_network_file(bundled_network_path()),
    "ieee33-case3": lambda: apply_scenario(parse_network_file(bundled_network_path()), "case3"),
    "validation6": lambda: parse_network_file(bundled_validation_path()),
    "chain4": lambda: parse_network_text(CHAIN4),
    "tie": lambda: parse_network_text(TIE),
    "single-line": lambda: parse_network_text(SINGLE_LINE),
}
ISOLATION_MODELS = {name: build_network(spec()) for name, spec in ISOLATION_SPECS.items()}


@pytest.mark.parametrize("name,line_id", [(name, line_id)
                                          for name, model in ISOLATION_MODELS.items()
                                          for line_id in model.line_ids])
def test_exposure_read_off_the_engine_partition_matches_the_former_rule(name, line_id):
    """On the bundled and test networks the engine's partition leaves dark
    for the repair the buses the former component-and-reclose rule did, but
    for the root of a breaker the section's disconnectors do not cut off
    from the fault, which has no load; and it interrupts at the fault the
    load points of the line's feeder, but for a normally open tie, whose
    open switch keeps the fault from every breaker."""
    model = ISOLATION_MODELS[name]
    feeder = model.system_of_bus[model.lines[line_id].from_bus]
    root = next(d.root_bus for d in model.distribution_systems if d.id == feeder)
    isolated = _dark(model, line_id, model.normally_open.union(
        model.sections[line_id].boundary_disconnectors))
    differ = isolated ^ reference_isolation(model, line_id)
    assert differ <= {root}
    assert differ.isdisjoint(model.load_points)

    dark = set(_dark(model, line_id, model.normally_open)).intersection(model.load_points)
    if line_id in model.normally_open_lines:
        assert dark == set()
    else:
        assert dark == {b for b in model.load_points if model.system_of_bus[b] == feeder}


@pytest.mark.parametrize("text,line_id,rate", [
    (BREAKER_ONLY, "L1", 0.1), (BREAKER_ONLY, "L2", 0.1),
    (TIE, "LA", 0.5), (TIE, "LC", 0.5), (TIE, "LT", 0.5),
])
def test_closed_form_is_rate_times_a_scripted_fault(text, line_id, rate):
    """Each line's closed-form exposure is its rate times what one scripted
    fault on it costs each load point in the engine, with the same
    sectioning time and an hourly increment."""
    model = build_network(_with_only_failing(parse_network_text(text), line_id, rate))
    report = analytical_indices(model, {}, sectioning_h=1.0)
    config = SimulationConfig(horizon_h=48.0, manual_sectioning_h=1.0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(1.0, 48.0), config), 0,
                           script=[ScriptedFault(10.0, line_id)])
    assert ledger.warnings == []
    for b in model.load_points:
        assert report.lambda_i[b] == pytest.approx(rate * ledger.interruptions[b], rel=1e-12)
        assert report.u_i[b] == pytest.approx(rate * ledger.outage_hours[b], rel=1e-12)


def test_no_disconnector_keeps_the_breaker_open_and_a_tie_interrupts_nobody():
    report = analytical_indices(build_network(parse_network_text(BREAKER_ONLY)), {},
                                sectioning_h=1.0)
    # each fault keeps B out for sectioning and repair: 2 * 0.1 * (1 + 4)
    assert report.u_i["B"] == pytest.approx(1.0, rel=1e-12)
    tie_only = _with_only_failing(parse_network_text(TIE), "LT", 0.5)
    report = analytical_indices(build_network(tie_only), {}, sectioning_h=1.0)
    assert report.lambda_i["A2"] == report.u_i["A2"] == 0.0
