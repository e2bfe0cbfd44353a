"""Less common network shapes: microgrids, tie lines, multiple feeders,
sub-hourly increments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.engine import ScriptedFault, SimulationConfig, TopologyCache, run_iteration
from gridrel.loadflow import LoadFlowProblem
from gridrel.netfile import parse_network_text, serialize_network_spec
from gridrel.network import (
    NetworkValidationError, build_network, connected_components,
)
from gridrel.scenarios import apply_scenario
from gridrel.timeseries import ProfileSet

from conftest import TIE

MICROGRID = """
[network]
id = MG
[systems]
dist DS1 root=B1
microgrid M1 via=DM
[buses]
B1 customers=0
B2 customers=10 load_mw=0.2 category=general
M2 customers=5 load_mw=0.1 category=general
M3 customers=5 load_mw=0.1 category=general
[lines]
L1 from=B1 to=B2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
LM from=B2 to=M2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
LM2 from=M2 to=M3 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
D1 kind=disconnector line=L1 end=from state=closed
DM kind=disconnector line=LM end=from state=closed
[batteries]
MBAT bus=M3 capacity_mwh=1000 inverter_mw=0.5 soc_min=0.1 soc_max=0.9
"""


def test_microgrid_builds_and_islands():
    model = build_network(parse_network_text(MICROGRID))
    assert [m.id for m in model.microgrids] == ["M1"]
    config = SimulationConfig(increment_h=1.0, horizon_h=24.0, iterations=1,
                              master_seed=0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(1.0, 24.0), config), 0,
                           script=[ScriptedFault(5.0, "L1")])
    # during the sectioning hour the microgrid battery carries the island;
    # afterwards B2 sits in the isolated section while M2/M3 stay on battery
    assert ledger.outage_hours["M2"] == 0.0
    assert ledger.outage_hours["M3"] == 0.0
    assert ledger.outage_hours["B2"] == 4.0
    assert ledger.ens_mwh["M2"] == 0.0


def test_microgrid_must_join_through_normally_closed_disconnector():
    bad = MICROGRID.replace("DM kind=disconnector line=LM end=from state=closed",
                            "DM kind=disconnector line=LM end=from state=open")
    with pytest.raises(NetworkValidationError):
        build_network(parse_network_text(bad))


def test_normally_open_tie_keeps_feeders_separate():
    model = build_network(parse_network_text(TIE))
    comps = connected_components(model, {})
    assert comps == [("A1", "A2"), ("C1", "C2")]
    assert model.normally_open == {"DT"}
    assert model.normally_open_lines == {"LT"}
    assert model.system_of_bus["A2"] == "DS1"
    assert model.system_of_bus["C2"] == "DS2"
    # the forest each state is compiled over: one breadth-first walk per feeder
    assert model.tree_order == ("A1", "A2", "C1", "C2")
    assert model.tree_parent == {"A1": None, "A2": "A1", "C1": None, "C2": "C1"}
    assert model.feed_line == {"A1": None, "A2": "LA", "C1": None, "C2": "LC"}


def test_closed_tie_between_feeders_is_rejected():
    bad = TIE.replace("DT kind=disconnector line=LT end=from state=open",
                      "DT kind=disconnector line=LT end=from state=closed")
    with pytest.raises(NetworkValidationError):
        build_network(parse_network_text(bad))


def test_fault_in_one_feeder_leaves_the_other_alone():
    model = build_network(parse_network_text(TIE))
    config = SimulationConfig(increment_h=1.0, horizon_h=24.0, iterations=1,
                              master_seed=0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(1.0, 24.0), config), 0,
                           script=[ScriptedFault(5.0, "LA")])
    assert ledger.outage_hours["A2"] == 5.0
    assert ledger.outage_hours["C2"] == 0.0


def test_microgrid_round_trips_through_the_file_format():
    spec = parse_network_text(MICROGRID)
    assert parse_network_text(serialize_network_spec(spec)) == spec


def test_half_hour_increments_reproduce_the_same_outage_totals():
    from conftest import CHAIN4
    model = build_network(parse_network_text(CHAIN4))
    config = SimulationConfig(increment_h=0.5, horizon_h=48.0, iterations=1,
                              master_seed=0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(0.5, 48.0), config), 0,
                           script=[ScriptedFault(10.0, "L2")])
    assert ledger.outage_hours == {"B2": 1.0, "B3": 5.0, "B4": 5.0}
    assert ledger.ens_mwh == pytest.approx({"B2": 0.2, "B3": 1.5, "B4": 0.5})


# R-A carries the breaker; R-B-A is the feeder tree while the breaker is open
OPEN_BREAKER = """
[network]
id = OB
[systems]
dist DS1 root=R
[buses]
R customers=0
A customers=10 load_mw=0.2 category=general
B customers=10 load_mw=0.2 category=general
[lines]
L1 from=R to=A r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L2 from=R to=B r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L3 from=B to=A r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=open
"""


def test_a_normally_open_breaker_is_refused():
    # the engine closes breakers by its own rule, which would close the ring
    with pytest.raises(NetworkValidationError,
                       match="circuit breaker 'CB' must be normally closed"):
        build_network(parse_network_text(OPEN_BREAKER))


_FOREST_MODELS = {}


def _forest_model(name, ieee33_spec, validation6):
    if name == "validation6":
        return validation6
    if name not in _FOREST_MODELS:
        _FOREST_MODELS[name] = build_network(
            apply_scenario(ieee33_spec, name) if name == "case4"
            else parse_network_text({"TIE": TIE, "MICROGRID": MICROGRID}[name]))
    return _FOREST_MODELS[name]


@pytest.mark.parametrize("name", ["case4", "validation6", "TIE", "MICROGRID"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_switching_state_is_a_forest(name, data, ieee33_spec, validation6):
    """Every conducting line is normally closed, so whatever lines fail and
    whichever of them are cut out, each sub-system is a tree."""
    model = _forest_model(name, ieee33_spec, validation6)
    failed = data.draw(st.frozensets(st.sampled_from(model.line_ids)))
    isolated = (data.draw(st.frozensets(st.sampled_from(sorted(failed))))
                if failed else frozenset())
    cache = TopologyCache(model, ProfileSet(1.0, 24.0), SimulationConfig(horizon_h=24.0))
    for sub in cache.state(failed, isolated):
        assert len(sub.lines) == len(sub.buses) - 1
        edges = [(l.id, l.from_bus, l.to_bus, complex(l.r_pu, l.x_pu)) for l in sub.lines]
        for bus in sub.buses:
            assert LoadFlowProblem.from_tree(bus, edges, {}).bus_ids[0] == bus
