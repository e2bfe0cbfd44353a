import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridrel import engine, shedding
from gridrel.engine import (
    HistoryLedger, ScriptedFault, SequentialSimulation, SimulationConfig,
    TopologyCache, ends_silently, phase_increments, run_iteration,
    run_monte_carlo, update_battery_demand, warning_counts,
)
from gridrel.indices import aggregate, iteration_report
from gridrel.loadflow import LOADING_MARGIN, solve_fbs
from gridrel.netfile import parse_network_text
from gridrel.network import Battery, build_network
from gridrel.scenarios import apply_scenario
from gridrel.stochastic import SectioningPlan
from gridrel.timeseries import ProfileSet

from conftest import CHAIN4
from oracles import countdown_line_phase, countdown_repair

CHAIN4_ICT = CHAIN4 + """
[ict]
controller CTRL hw_rate=0.2 hw_repair=2.5h sw_rate=0 new_signal=2s reboot=5min manual=0.3h p_new_signal=0 p_reboot=0
sensor S1 line=L1 rate=0.023 new_signal=2s reboot=5min manual=2h p_new_signal=0 p_reboot=0
sensor S2 line=L2 rate=0.023 new_signal=2s reboot=5min manual=2h p_new_signal=0 p_reboot=0
sensor S3 line=L3 rate=0.023 new_signal=2s reboot=5min manual=2h p_new_signal=0 p_reboot=0
switch IS1 disconnector=D1 rate=0.03 repair=2h
switch IS2 disconnector=D2 rate=0.03 repair=2h
switch IS3 disconnector=D3 rate=0.03 repair=2h
"""

BATTERY_ISLAND = """
[network]
id = BI
[systems]
dist DS1 root=B1
[buses]
B1 customers=0
B2 customers=10 load_mw=0.2 category=general
B3 customers=10 load_mw=0.2 category=general
B4 customers=10 load_mw=0.1 category=general
[lines]
L1 from=B1 to=B2 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
L2 from=B2 to=B3 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
L3 from=B3 to=B4 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
D1 kind=disconnector line=L1 end=from state=closed
D2 kind=disconnector line=L2 end=from state=closed
D3 kind=disconnector line=L3 end=from state=closed
[batteries]
BAT bus=B3 capacity_mwh=1000 inverter_mw=0.3 soc_min=0.1 soc_max=0.9
"""
# the huge capacity makes the discharge bound inverter-limited (0.3 MW) for
# any plausible SOC draw, so the island outcome does not depend on the draw

WIND_CHARGE = """
[network]
id = WC
[systems]
dist DS1 root=B1
[buses]
B1 customers=0
B2 customers=10 load_mw=0.1 category=general
B3 customers=10 load_mw=0.1 category=general
B4 customers=5 load_mw=0.0 category=general
[lines]
L1 from=B1 to=B2 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
L2 from=B2 to=B3 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
L3 from=B3 to=B4 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
D1 kind=disconnector line=L1 end=from state=closed
[production]
W bus=B3 min_mw=0 max_mw=1.0
[batteries]
BAT bus=B4 capacity_mwh=1 inverter_mw=0.5 soc_min=0.2 soc_max=0.2
"""
# charge headroom below the inverter limit: one islanded hour tops the
# battery up to soc_max exactly, whatever the onset draw was
WIND_CHARGE = WIND_CHARGE.replace("soc_min=0.2 soc_max=0.2",
                                  "soc_min=0.2 soc_max=0.4")


def _flat_profiles(horizon=48.0):
    return ProfileSet(1.0, horizon)


def _config(**kw):
    defaults = dict(increment_h=1.0, horizon_h=48.0, iterations=1, master_seed=1)
    defaults.update(kw)
    return SimulationConfig(**defaults)


@pytest.mark.parametrize("field", ["automated_sectioning_h", "manual_sectioning_h"])
def test_sectioning_times_must_not_be_negative(field):
    with pytest.raises(ValueError, match="sectioning times must be >= 0"):
        _config(**{field: -1.0})
    assert getattr(_config(**{field: 0.0}), field) == 0.0


def _run_scripted(text, faults, horizon=48.0, **cfg):
    model = build_network(parse_network_text(text))
    config = _config(horizon_h=horizon, **cfg)
    ledger = run_iteration(TopologyCache(model, _flat_profiles(horizon), config), 0,
                           script=[ScriptedFault(t, c) for t, c in faults])
    return model, ledger


# -- scripted fault timelines ---------------------------------------------


def test_mid_feeder_fault_manual_sectioning():
    _, ledger = _run_scripted(CHAIN4, [(10.0, "L2")])
    assert ledger.outage_hours == {"B2": 1.0, "B3": 5.0, "B4": 5.0}
    assert ledger.interruptions == {"B2": 1.0, "B3": 1.0, "B4": 1.0}
    assert ledger.ens_mwh == pytest.approx({"B2": 0.2, "B3": 1.5, "B4": 0.5})
    assert ledger.warnings == []


def test_leaf_fault_takes_out_only_the_leaf_after_sectioning():
    _, ledger = _run_scripted(CHAIN4, [(10.0, "L3")])
    assert ledger.outage_hours == {"B2": 1.0, "B3": 1.0, "B4": 5.0}


def test_root_fault_blacks_out_whole_feeder():
    _, ledger = _run_scripted(CHAIN4, [(10.0, "L1")])
    # the faulted section (L1 + B2) adjoins every path: all buses wait for repair
    assert ledger.outage_hours == {"B2": 5.0, "B3": 5.0, "B4": 5.0}


def test_two_simultaneous_faults_each_keep_their_own_timer():
    _, ledger = _run_scripted(CHAIN4, [(10.0, "L1"), (10.0, "L3")])
    assert ledger.outage_hours == {"B2": 5.0, "B3": 5.0, "B4": 5.0}
    assert ledger.interruptions == {"B2": 1.0, "B3": 1.0, "B4": 1.0}


def test_overlapping_sections_stay_cut_out_until_each_repair_ends():
    # the sections of L2 and L3 share D3: after L2's repair ends at 15 h, D3
    # stays open for L3 (repaired at 16 h), so the breaker keeps B2 and B3 fed
    _, ledger = _run_scripted(CHAIN4, [(10.0, "L2"), (11.0, "L3")])
    assert ledger.outage_hours == {"B2": 1.0, "B3": 5.0, "B4": 6.0}
    assert ledger.interruptions == {"B2": 1.0, "B3": 1.0, "B4": 1.0}
    assert [e for e in ledger.events if e[2] == "interrupted"] == [
        (10.0, "B2", "interrupted"), (10.0, "B3", "interrupted"),
        (10.0, "B4", "interrupted")]
    assert ledger.warnings == []


def test_restoration_returns_switches_to_normal_and_is_idempotent():
    model = build_network(parse_network_text(CHAIN4))
    config = _config()
    sim = SequentialSimulation(TopologyCache(model, _flat_profiles(), config),
                               np.random.default_rng(0),
                               script=[ScriptedFault(5.0, "L2")])
    sim.run()
    assert sim.faults == set()
    # the empty fault table compiles to the normal state: one grid-fed feeder
    (normal,) = sim.topology.state(sim.faults, ())
    assert normal.buses == ("B1", "B2", "B3", "B4")
    assert normal.grid_bus == "B1"
    assert [line.id for line in normal.lines] == ["L1", "L2", "L3"]
    events = list(sim.ledger.events)
    sim.run_increment()  # one more step after the last repair changes nothing
    assert sim.faults == set()
    assert sim.ledger.events == events


@pytest.mark.parametrize("time_h", [-3.0, -0.5, 48.0, 100.0])
def test_scripted_fault_outside_the_horizon_is_a_warning(time_h):
    _, ledger = _run_scripted(CHAIN4, [(time_h, "L2")])
    assert sum(ledger.outage_hours.values()) == 0.0
    assert ledger.events == []
    assert ledger.warnings == [
        f"scripted fault on 'L2' at {time_h:g}h outside the horizon"]


def test_a_scripted_fault_starts_at_the_increment_a_phase_of_its_time_lasts():
    # at 15 min, 0.75 h less 5e-10 h is within the 1e-9 h tolerance of three
    # increments: a phase that long lasts 3, and the fault starts in increment
    # 3, not in increment 2
    time_h, dt = 0.75 - 5e-10, 0.25
    assert phase_increments(time_h, dt) == 3
    model = build_network(parse_network_text(CHAIN4))
    config = _config(increment_h=dt, horizon_h=12.0)
    ledger = run_iteration(TopologyCache(model, ProfileSet(dt, 12.0), config), 0,
                           script=[ScriptedFault(time_h, "L2")])
    assert ledger.events[0] == (0.75, "L2", "line_fault")


def test_scripted_fault_past_a_profiled_horizon_is_not_simulated(ieee33_spec,
                                                                 bundled_profiles):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case1"))
    config = _config()
    # the profiles end with the horizon: hour 100 has no load to look up
    ledger = run_iteration(TopologyCache(model, ProfileSet(1.0, 48.0, loads, wind), config),
                           0, script=[ScriptedFault(100.0, "L03")])
    assert ledger.events == []
    assert ledger.warnings == ["scripted fault on 'L03' at 100h outside the horizon"]


def test_scripted_fault_on_an_unknown_component_is_a_warning():
    model = build_network(parse_network_text(CHAIN4))
    sim = SequentialSimulation(TopologyCache(model, _flat_profiles(), _config()),
                               np.random.default_rng(0),
                               script=[ScriptedFault(10.0, "NOPE"), ScriptedFault(99.0, "X"),
                                       ScriptedFault(12.0, "L2")])
    # known components are scheduled by key, in both modes
    assert sim.schedule == {12: [("line", "L2")]}
    assert sim.ledger.warnings == ["scripted fault on unknown component 'NOPE'",
                                   "scripted fault on 'X' at 99h outside the horizon"]
    ledger = sim.run()
    assert [e for e in ledger.events if e[1] == "L2"][0] == (12.0, "L2", "line_fault")
    assert len(ledger.warnings) == 2


def test_profile_set_must_span_the_run(ieee33_spec, bundled_profiles):
    """A profile set for another horizon is refused before the run starts,
    whether its loads read a series or are flat."""
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case1"))
    for profiles in (ProfileSet(1.0, 48.0, loads, wind), ProfileSet(1.0, 48.0)):
        with pytest.raises(ValueError, match="profile set spans 48 increments, the run 8760"):
            TopologyCache(model, profiles, _config(horizon_h=8760.0))


def test_outage_truncates_at_horizon():
    _, ledger = _run_scripted(CHAIN4, [(46.0, "L2")], horizon=48.0)
    assert ledger.outage_hours["B4"] == 2.0  # only 2 of the 5 hours fit


# -- transformers and phase ends ------------------------------------------


def _with_b3_transformer(text, repair, rate=0.1):
    return text.replace("B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general",
                        "B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general "
                        f"transformer_rate={rate} transformer_repair={repair}")


@pytest.mark.parametrize("repair, increment_h, down_h, reported", [
    ("8h", 1.0, 8.0, False),
    ("2.5h", 1.0, 2.0, True),
    ("2.5h", 0.5, 2.5, False),
])
def test_transformer_outage_takes_out_only_its_bus(repair, increment_h, down_h,
                                                   reported):
    model = build_network(parse_network_text(_with_b3_transformer(CHAIN4, repair)))
    config = _config(increment_h=increment_h)
    ledger = run_iteration(TopologyCache(model, ProfileSet(increment_h, 48.0), config), 0,
                           script=[ScriptedFault(10.0, "B3")])
    assert ledger.outage_hours == {"B2": 0.0, "B3": down_h, "B4": 0.0}
    assert ledger.interruptions == {"B2": 0.0, "B3": 1.0, "B4": 0.0}
    assert ledger.ens_mwh == pytest.approx({"B2": 0.0, "B3": 0.3 * down_h, "B4": 0.0})
    # a repair of a whole number of increments ends without an event
    assert ledger.events == [(10.0, "B3", "transformer_fault"),
                             (10.0, "B3", "interrupted")] + (
        [(10.0 + down_h, "B3", "transformer_repaired")] if reported else [])


def test_a_scripted_fault_reaches_a_transformer_that_never_fails_by_itself():
    # scripted faults name any bus with a transformer, as they name any line
    model, ledger = _run_scripted(_with_b3_transformer(CHAIN4, "4h", rate=0), [(10.0, "B3")])
    assert not model.buses["B3"].transformer.can_fail
    assert ledger.warnings == []
    assert ledger.outage_hours == {"B2": 0.0, "B3": 4.0, "B4": 0.0}
    assert ledger.interruptions == {"B2": 0.0, "B3": 1.0, "B4": 0.0}


def test_repairs_ending_together_complete_transformers_before_ict():
    _, ledger = _run_scripted(_with_b3_transformer(CHAIN4_ICT, "2.5h"),
                              [(10.0, "CTRL/hw"), (10.0, "B3")])
    assert [ev for ev in ledger.events if ev[2].endswith("_repaired")] == [
        (12.0, "B3", "transformer_repaired"), (12.0, "CTRL/hw", "ict_repaired")]


_INCREMENTS = (1.0, 0.5, 0.25, 1.0 / 6.0)
_BUNDLED_DURATIONS = (0.0, 2.0 / 3600.0, 5.0 / 60.0, 0.3, 1.0, 2.0, 2.5, 4.0, 8.0,
                      2.0 / 3600.0 + 5.0 / 60.0 + 2.0)


@st.composite
def _phase(draw):
    dt = draw(st.sampled_from(_INCREMENTS))
    on_grid = draw(st.integers(0, 60)) * dt
    duration = draw(st.one_of(
        st.sampled_from(_BUNDLED_DURATIONS),
        # on a multiple, or off it by less than the 1e-9 h tolerance
        st.sampled_from((0.0, 1e-12, -1e-12, 1e-10, -1e-10)).map(lambda e: on_grid + e),
        # near a multiple, outside the tolerance
        st.sampled_from((1e-6, -1e-6, 1e-3, -1e-3)).map(lambda e: on_grid + e),
        # anywhere between two multiples
        st.floats(0.0, 1.0).map(lambda f: on_grid + f * dt),
    ).filter(lambda d: d >= 0.0))
    # the two rules may round apart within float error of the tolerance edge
    off = abs(duration - round(duration / dt) * dt)
    assume(abs(off - 1e-9) > 1e-12)
    return duration, dt


@settings(max_examples=400, deadline=None)
@given(_phase())
def test_phase_end_increments_match_the_float_countdown(phase):
    duration, dt = phase
    assert phase_increments(duration, dt) == countdown_line_phase(duration, dt)
    assert (phase_increments(duration, dt), not ends_silently(duration, dt)) == \
        countdown_repair(duration, dt)


# -- ICT behavior -----------------------------------------------------------


def test_automated_sectioning_spares_upstream():
    _, ledger = _run_scripted(CHAIN4_ICT, [(10.0, "L2")])
    assert ledger.outage_hours == {"B2": 0.0, "B3": 4.0, "B4": 4.0}
    assert ledger.interruptions == {"B2": 0.0, "B3": 1.0, "B4": 1.0}


def test_controller_hardware_failure_forces_manual():
    _, ledger = _run_scripted(CHAIN4_ICT, [(9.0, "CTRL/hw"), (10.0, "L2")])
    # controller repair spans 10h..12h (2.5h floored to 2 increments)
    assert ledger.outage_hours["B2"] == 1.0


def test_latent_sensor_fault_discovered_on_first_call():
    model, ledger = _run_scripted(
        CHAIN4_ICT, [(5.0, "S2"), (10.0, "L2"), (30.0, "L2")])
    events = {(t, c): e for t, c, e in ledger.events}
    # first fault: sensor dead -> manual sectioning, discovery starts its repair
    assert events[(10.0, "S2")] == "latent_discovered:manual"
    # second fault: sensor repaired -> automated, upstream spared
    assert ledger.outage_hours["B2"] == 1.0  # only the first event's hour


def test_dead_intelligent_switch_forces_manual_and_is_discovered():
    _, ledger = _run_scripted(CHAIN4_ICT, [(5.0, "IS3"), (10.0, "L2")])
    # IS3 guards D3, which bounds L2's section, so it is called and found dead
    assert ledger.outage_hours["B2"] == 1.0
    assert (10.0, "IS3", "latent_discovered:manual") in ledger.events


@pytest.mark.parametrize("probabilities, outcome", [
    ("p_new_signal=1 p_reboot=0", "new_signal"),
    ("p_new_signal=0 p_reboot=1", "reboot"),
    ("p_new_signal=0 p_reboot=0", "manual"),
])
def test_each_ict_unit_logs_the_event_of_its_repair_rule(probabilities, outcome):
    # the controller and the sensors draw a staged recovery, the controller's
    # hardware and the intelligent switches repair in fixed hours
    text = CHAIN4_ICT.replace("p_new_signal=0 p_reboot=0", probabilities)
    _, ledger = _run_scripted(text, [(5.0, "S2"), (5.0, "IS3"), (9.0, "CTRL/hw"),
                                     (9.0, "CTRL/sw"), (12.0, "L2"), (30.0, "L2")])
    # the first L2 fault finds S2 dead, and the second, with S2 repaired, IS3
    assert [e for e in ledger.events if e[1] in ("S2", "IS3", "CTRL/hw", "CTRL/sw")
            and not e[2].endswith("_repaired")] == [
        (5.0, "IS3", "latent_ict_fault"),
        (5.0, "S2", "latent_ict_fault"),
        (9.0, "CTRL/hw", "controller_hw_fault"),
        (9.0, "CTRL/sw", f"controller_sw_fault:{outcome}"),
        (12.0, "S2", f"latent_discovered:{outcome}"),
        (30.0, "IS3", "latent_discovered:manual"),
    ]


def test_repairs_of_fixed_hours_draw_nothing():
    text = CHAIN4_ICT.replace(
        "B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general",
        "B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general "
        "transformer_rate=0.1 transformer_repair=2.5h")
    model = build_network(parse_network_text(text))
    rng = np.random.default_rng(3)
    sim = SequentialSimulation(TopologyCache(model, _flat_profiles(), _config()), rng,
                               script=[])
    sim.latent = {"IS3"}
    state = rng.bit_generator.state
    sim._fail_component(("ict", "CTRL/hw"), 0)
    sim._fail_component(("transformer", "B4"), 0)
    sim._discover_latent(SectioningPlan(1.0, False, (), ("IS3",)), 0.0)
    assert rng.bit_generator.state == state
    assert sim.repairs == {("ict", "CTRL/hw"), ("transformer", "B4"), ("ict", "IS3")}
    # each ends at 2 h; IS3's 2 h, a whole number of increments, unreported
    assert sim.ends == {2: [("ict", "CTRL/hw"), ("transformer", "B4")]}
    assert sim.silent_ends == {2: [("ict", "IS3")]}
    # a staged recovery is drawn when it starts
    sim._fail_component(("ict", "CTRL/sw"), 0)
    assert rng.bit_generator.state != state


def test_ict_lookup_answers_as_a_table_of_every_unit(ieee33_spec):
    model = build_network(apply_scenario(ieee33_spec, "case3"))
    sim = SequentialSimulation(TopologyCache(model, _flat_profiles(), _config()),
                               np.random.default_rng(0), script=[])
    ctrl = model.ict.controller.id
    units = [s.id for s in model.ict.sensors] + [i.id for i in model.ict.intelligent_switches]
    for latent, repairs in [((), ()), (("S03", "IS07"), ("IS01", "S30", ctrl + "/sw")),
                            ((), (ctrl + "/hw",))]:
        sim.latent = set(latent)
        sim.repairs = {("ict", ident) for ident in repairs}
        table = {ident: ident not in latent and ident not in repairs for ident in units}
        table[ctrl] = not any(part in repairs for part in (ctrl + "/hw", ctrl + "/sw"))
        for ident in [*units, ctrl, ctrl + "/hw", "B05", "nope"]:
            assert sim._ict_working(ident) is table.get(ident, False)


def test_sub_increment_ict_repairs_are_invisible_at_hourly_steps():
    text = CHAIN4_ICT.replace("p_new_signal=0 p_reboot=0",
                              "p_new_signal=1 p_reboot=0")
    _, ledger = _run_scripted(text, [(5.0, "S2"), (10.0, "L2")])
    # the sensor recovers via new-signal (2 s) within the failure increment,
    # but it was dead when called at t=10: manual fallback still applies
    assert ledger.outage_hours["B2"] == 1.0


# -- islands and batteries ---------------------------------------------------


def test_battery_island_covers_part_of_the_demand():
    _, ledger = _run_scripted(BATTERY_ISLAND, [(10.0, "L1")], horizon=20.0)
    # sectioning hour: island of all 3 load buses, battery serves 0.3 of 0.5;
    # lexicographic tie-break puts the 0.2 MW shortfall on B3 (partial) and
    # B4 (full) - B2 is served first
    assert ledger.ens_mwh["B2"] == pytest.approx(0.8)   # 4 repair hours in-section
    assert ledger.ens_mwh["B3"] == pytest.approx(0.1)
    assert ledger.ens_mwh["B4"] == pytest.approx(0.1)
    assert ledger.outage_hours == {"B2": 4.0, "B3": 0.0, "B4": 1.0}
    assert ledger.interruptions == {"B2": 1.0, "B3": 0.0, "B4": 1.0}
    assert ledger.warnings == []


def test_transformer_down_in_a_shedding_island_gets_nothing():
    text = BATTERY_ISLAND.replace("B4 customers=10 load_mw=0.1 category=general",
                                  "B4 customers=10 load_mw=0.1 category=general "
                                  "transformer_rate=0.1 transformer_repair=2.5h")
    _, ledger = _run_scripted(text, [(10.0, "L1"), (10.0, "B4")], horizon=20.0)
    # sectioning hour: the island of B2..B4 has 0.4 MW of live demand, B4's
    # transformer being down, against the battery's 0.3 MW: B2 is served in
    # full, B3 in part (0.1 MW shed) and B4, down until 12 h, gets nothing
    assert ledger.ens_mwh["B2"] == pytest.approx(0.8)   # 4 repair hours in-section
    assert ledger.ens_mwh["B3"] == pytest.approx(0.1)
    assert ledger.ens_mwh["B4"] == pytest.approx(0.2)
    assert ledger.outage_hours == {"B2": 4.0, "B3": 0.0, "B4": 2.0}
    assert ledger.interruptions == {"B2": 1.0, "B3": 0.0, "B4": 1.0}
    assert (12.0, "B4", "transformer_repaired") in ledger.events
    assert ledger.warnings == []


def test_infeasible_island_is_reported_as_a_warning():
    # 5 MW of forced generation cannot go anywhere in a 0.6 MW island
    forced = CHAIN4 + "[production]\nG bus=B3 min_mw=5 max_mw=6\n"
    _, ledger = _run_scripted(forced, [(10.0, "L1")], horizon=20.0)
    assert all("shedding infeasible" in w for w in ledger.warnings)
    # an island dark because its problem is infeasible is stepped, so it
    # warns at each increment of the sectioning hour and the repair
    assert [w.split(":")[0] for w in ledger.warnings] == [
        f"t={h}h" for h in range(10, 15)]
    assert warning_counts([ledger, ledger]) == {
        "shedding infeasible": 2 * len(ledger.warnings),
        "load flow non-converged": 0, "power balance": 0, "other": 0}
    assert ledger.outage_hours["B4"] == 5.0


# B2's load is fed over L2 by the 5 MW unit at B3 once an L1 fault at 5 h
# islands B2 and B3; every island problem fails the load-flow certificate
FALLBACK_ISLAND = """
[network]
id = FB
[systems]
dist DS1 root=B1
[buses]
B1 customers=0
B2 customers=10 load_mw={load_mw} category=general
B3 customers=0
[lines]
L1 from=B1 to=B2 r_pu=0.005 x_pu=0.005 capacity_mw=10 rate=0 repair=4h
L2 from=B2 to=B3 r_pu={z} x_pu={z} capacity_mw={capacity_mw} rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
[production]
G bus=B3 min_mw=0 max_mw=5
"""
_FALLBACK_EVENTS = [(5.0, "L1", "line_fault"), (6.0, "L1", "isolated"),
                    (10.0, "L1", "line_repaired")]


def _run_fallback_island(monkeypatch, **fields):
    sweeps = []

    def recording_solve_fbs(problem, *args, **kwargs):
        solution = solve_fbs(problem, *args, **kwargs)
        sweeps.append(solution)
        return solution

    monkeypatch.setattr(engine, "solve_fbs", recording_solve_fbs)
    _, ledger = _run_scripted(FALLBACK_ISLAND.format(**fields), [(5.0, "L1")], horizon=12.0)
    # the island is served from 5 h to 10 h, one problem per hour, each swept
    assert (ledger.sweeps_certified, ledger.sweeps_run) == (0, 5) and len(sweeps) == 5
    return ledger, sweeps


def test_an_overload_the_certificate_cannot_rule_out_is_swept_and_repaired(monkeypatch):
    # 1 MW through a 1 MW line of r = x = 0.2 p.u.: the lossless flow fits,
    # the sweep's 1.021 MW does not, and the repair pass sheds at B2
    ledger, sweeps = _run_fallback_island(monkeypatch, load_mw=1.0, z=0.2, capacity_mw=1.0)
    assert all(s.converged and s.line_flow_mw["L2"] == pytest.approx(1.0208514486, abs=1e-9)
               for s in sweeps)
    assert ledger.ens_mwh == {"B2": 0.14964061346367907}
    assert ledger.outage_hours == {"B2": 0.0} and ledger.interruptions == {"B2": 0.0}
    assert ledger.events == _FALLBACK_EVENTS and ledger.warnings == []


def test_a_sweep_within_the_loading_margin_lets_the_shedding_result_stand(monkeypatch):
    # the same 1.021 MW through a 1.011 MW line: 0.98% over, within the 1%
    # margin, so no repair pass runs and B2 is served in full (at 1.02 MW
    # the certificate passes and no sweep runs)
    ledger, sweeps = _run_fallback_island(monkeypatch, load_mw=1.0, z=0.2, capacity_mw=1.011)
    assert all(s.converged and 0.0 < s.line_flow_mw["L2"] / 1.011 - 1.0 <= LOADING_MARGIN
               for s in sweeps)
    assert ledger.ens_mwh == {"B2": 0.0} and ledger.warnings == []
    assert ledger.events == _FALLBACK_EVENTS


def test_a_sweep_the_certificate_cannot_rule_out_still_warns(monkeypatch):
    # 5 MW through r = x = 0.6 p.u.: zeta = 0.42 and the sweep diverges; the
    # LP's result stands, with a warning at each hour
    ledger, sweeps = _run_fallback_island(monkeypatch, load_mw=5.0, z=0.6, capacity_mw=10.0)
    assert not any(s.converged for s in sweeps)
    assert ledger.warnings == [f"t={h}h: load flow did not converge in sub-system B2"
                               for h in range(5, 10)]
    assert ledger.ens_mwh == {"B2": 0.0} and ledger.events == _FALLBACK_EVENTS


def test_certified_and_run_sweeps_add_up_to_every_confirmation(ieee33_spec, bundled_profiles,
                                                               cost_table):
    # 40 case2 iterations at 1 h, seed 2024, swept 138 times when every
    # confirmation ran the sweep; the certificate passes each of them
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case2"))
    config = _config(horizon_h=8760.0, iterations=40, master_seed=2024)
    ledgers = run_monte_carlo(model, ProfileSet(1.0, 8760.0, loads, wind), config, cost_table)
    certified = sum(ledger.sweeps_certified for ledger in ledgers)
    run = sum(ledger.sweeps_run for ledger in ledgers)
    assert certified + run == 138
    assert run == 0


def test_island_charging_stores_wind_surplus():
    model = build_network(parse_network_text(WIND_CHARGE))
    config = _config(horizon_h=11.0)
    rng = np.random.default_rng(0)
    sim = SequentialSimulation(TopologyCache(model, _flat_profiles(11.0), config), rng,
                               script=[ScriptedFault(10.0, "L1")])
    sim.run()
    # islanded with 1.0 MW wind against 0.2 MW demand: the battery soaks up
    # surplus until it hits soc_max within the hour
    assert sim.soc["BAT"] == pytest.approx(0.4)


def test_a_grid_fed_battery_idles_while_its_subsystem_sheds(monkeypatch):
    # a 0.3 MW feeder under 0.5 MW of peak demand, so the normal state is not
    # steady; B4's transformer repair makes its increments evaluated
    text = BATTERY_ISLAND.replace(
        "dist DS1 root=B1", "dist DS1 root=B1 feeder_capacity_mw=0.3").replace(
        "B4 customers=10 load_mw=0.1 category=general",
        "B4 customers=10 load_mw=0.1 category=general "
        "transformer_rate=0.1 transformer_repair=2.5h")
    model = build_network(parse_network_text(text))
    topology = TopologyCache(model, _flat_profiles(20.0), _config(horizon_h=20.0))
    (sub,) = topology.state((), ())
    assert (sub.grid_bus, sub.steady) == ("B1", False)
    assert sub.batteries == ()  # its battery idles, so it is compiled without
    generators = []
    solve = shedding.solve_shedding

    def spy(problem):
        generators.append([g.id for g in problem.generators])
        return solve(problem)

    monkeypatch.setattr(shedding, "solve_shedding", spy)
    sim = SequentialSimulation(topology, np.random.default_rng(0),
                               script=[ScriptedFault(10.0, "B4")])
    soc = dict(sim.soc)
    ledger = sim.run()
    # the feeder serves B2 and part of B3 while B4 is down; the battery
    # neither dispatches nor moves its state of charge
    assert generators and all(ids == ["grid:B1"] for ids in generators)
    assert sim.soc == soc
    assert ledger.ens_mwh["B3"] == pytest.approx(0.2)


def test_update_battery_demand_bounds():
    bat = Battery("B", "x", capacity_mwh=1.0, inverter_mw=0.5,
                  soc_min=0.1, soc_max=1.0)
    # (lower, upper) output bounds of an islanded battery: discharging into
    # a deficit, charging (negative output) from a surplus
    assert update_battery_demand(1.0, 0.0, bat, 0.1, 1.0) == (0.0, 0.0)
    assert update_battery_demand(1.0, 0.0, bat, 1.0, 1.0) == (0.0, 0.5)  # inverter
    lower, upper = update_battery_demand(1.0, 0.0, bat, 0.2, 1.0)
    assert lower == 0.0 and upper == pytest.approx(0.1)  # energy-limited
    lower, upper = update_battery_demand(0.2, 1.0, bat, 0.5, 1.0)
    assert lower == pytest.approx(-0.5) and upper == 0.0  # inverter-limited charge
    lower, upper = update_battery_demand(0.2, 1.0, bat, 0.9, 1.0)
    assert lower == pytest.approx(-0.1) and upper == 0.0  # headroom-limited charge
    lower, upper = update_battery_demand(0.8, 1.0, bat, 0.5, 1.0)
    assert lower == pytest.approx(-0.2) and upper == 0.0  # surplus-limited charge


def test_discharge_bound_from_bundled_battery_numbers():
    bat = Battery("B", "x", capacity_mwh=1.0, inverter_mw=0.5,
                  soc_min=0.1, soc_max=1.0)
    lower, upper = update_battery_demand(5.0, 0.0, bat, 0.55, 1.0)
    assert lower == 0.0
    assert upper == pytest.approx(min(0.5, (0.55 - 0.1) * 1.0 / 1.0))
    assert upper == pytest.approx(0.45)


# -- stochastic behavior -----------------------------------------------------


def test_zero_rates_give_empty_ledger(chain4):
    config = _config(horizon_h=8760.0)
    ledger = run_iteration(TopologyCache(chain4, _flat_profiles(8760.0), config), 0)
    assert sum(ledger.outage_hours.values()) == 0.0
    assert sum(ledger.interruptions.values()) == 0.0
    assert ledger.events == []


def test_identical_seeds_identical_ledgers(ieee33_spec):
    model = build_network(apply_scenario(ieee33_spec, "case4"))
    config = SimulationConfig(iterations=1, master_seed=77)
    topology = TopologyCache(model, ProfileSet(1.0, 8760.0), config)
    a = run_iteration(topology, 0)
    b = run_iteration(topology, 0)
    assert a == b


def test_different_iterations_differ(ieee33_spec):
    model = build_network(apply_scenario(ieee33_spec, "case1"))
    config = SimulationConfig(iterations=1, master_seed=77)
    topology = TopologyCache(model, ProfileSet(1.0, 8760.0), config)
    a = run_iteration(topology, 0)
    b = run_iteration(topology, 1)
    assert a.events != b.events


def test_single_line_poisson_expectation():
    text = CHAIN4.replace("L1 from=B1 to=B2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0",
                          "L1 from=B1 to=B2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=1")
    model = build_network(parse_network_text(text))
    n = 10_000
    config = SimulationConfig(iterations=n, master_seed=5, horizon_h=8760.0)
    ledgers = run_monte_carlo(model, _flat_profiles(8760.0), config)
    counts = np.array([l.interruptions["B4"] for l in ledgers])
    mean = counts.mean()
    sem = counts.std(ddof=1) / np.sqrt(n)
    # 5 h of downtime per event trims the Poisson expectation by ~0.06%
    assert abs(mean - 1.0) <= 3 * sem + 0.005


def test_parallel_equals_sequential(ieee33_spec, bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case4"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    seq = run_monte_carlo(model, profiles,
                          SimulationConfig(iterations=12, master_seed=3,
                                           worker_count=1), cost_table)
    par = run_monte_carlo(model, profiles,
                          SimulationConfig(iterations=12, master_seed=3,
                                           worker_count=2), cost_table)
    assert seq == par


class _CurveFailingFrom:
    """An all-ones load curve whose reads raise from increment `fail_from` on."""

    def __init__(self, ones, fail_from):
        self.ones = ones
        self.fail_from = fail_from

    def __getitem__(self, key):
        first, last = (key.start, key.stop - 1) if isinstance(key, slice) else (key, key)
        if last >= self.fail_from:
            raise ArithmeticError(f"no load at t={max(first, self.fail_from)}")
        return self.ones[key]

    def min(self):
        return self.ones.min()

    def max(self):
        return self.ones.max()


class _ProfilesFailingFrom(ProfileSet):
    """Flat profiles whose load curves raise from increment `fail_from` on."""

    def __init__(self, fail_from):
        super().__init__(1.0, 8760.0)
        self.fail_from = fail_from

    def load_curve(self, name):
        return _CurveFailingFrom(super().load_curve(name), self.fail_from)


def test_failing_iteration_is_named_serial_and_pooled():
    model = build_network(parse_network_text(CHAIN4.replace("rate=0 ", "rate=1 ")))
    profiles = _ProfilesFailingFrom(8000)
    # at master seed 2 only iteration 5 of 0..5 evaluates a fault after 8000 h
    topology = TopologyCache(model, profiles, _config(horizon_h=8760.0, master_seed=2))
    for index in range(5):
        run_iteration(topology, index)
    messages = []
    for workers in (1, 2):
        config = _config(horizon_h=8760.0, iterations=6, master_seed=2,
                         worker_count=workers)
        with pytest.raises(RuntimeError, match=r"^iteration 5 \(master seed 2\) failed: "
                                               r"ArithmeticError\('no load at t=8") as info:
            run_monte_carlo(model, profiles, config)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("workers", [3, 8])
def test_uneven_shares_equal_serial(ieee33_spec, bundled_profiles, cost_table, workers):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case4"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    runs = [run_monte_carlo(model, profiles, SimulationConfig(
        iterations=5, master_seed=3, worker_count=w), cost_table) for w in (1, workers)]
    assert runs[0] == runs[1]
    assert multiprocessing.active_children() == []


def test_the_lowest_failing_index_is_raised_from_any_share():
    model = build_network(parse_network_text(CHAIN4.replace("rate=0 ", "rate=1 ")))
    profiles = _ProfilesFailingFrom(7000)
    # at master seed 4 iterations 2, 3 and 5 of 0..5 fail: with 2 workers the
    # caller's share (0, 2, 4) holds the lowest, with 3 a child's (2, 5), while
    # the caller's (0, 3) fails later
    messages = set()
    for workers in (1, 2, 3):
        config = _config(horizon_h=8760.0, iterations=6, master_seed=4,
                         worker_count=workers)
        with pytest.raises(RuntimeError, match=r"^iteration 2 \(master seed 4\) failed: "
                                               r"ArithmeticError\('no load at t=7") as info:
            run_monte_carlo(model, profiles, config)
        messages.add(str(info.value))
        assert multiprocessing.active_children() == []
    assert len(messages) == 1


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the child must inherit the patched run_iteration")
def test_a_worker_that_dies_without_sending_is_an_error(chain4, monkeypatch):
    run = engine.run_iteration

    def exit_at_one(topology, index, script=None):
        if index == 1:
            os._exit(7)
        return run(topology, index, script)

    def hung(signum, frame):
        raise TimeoutError("the run still waits for the dead worker")

    monkeypatch.setattr(engine, "run_iteration", exit_at_one)
    config = _config(iterations=4, worker_count=2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="a worker exited with code 7"):
            run_monte_carlo(chain4, _flat_profiles(), config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_aggregate_report_from_single_iteration(chain4):
    config = _config()
    ledger = run_iteration(TopologyCache(chain4, _flat_profiles(), config), 0,
                           script=[ScriptedFault(10.0, "L2")])
    report = iteration_report(ledger, {"general": 10.0})
    agg = aggregate([report])
    assert agg.ens.mean == report.ens_mwh
    assert agg.ens.std == 0.0


def test_ens_is_linear_in_load_scaling():
    doubled = CHAIN4.replace("load_mw=0.2", "load_mw=0.4") \
                    .replace("load_mw=0.3", "load_mw=0.6") \
                    .replace("load_mw=0.1", "load_mw=0.2")
    base_model = build_network(parse_network_text(CHAIN4))
    big_model = build_network(parse_network_text(doubled))
    config = _config()
    script = [ScriptedFault(10.0, "L2")]
    a = run_iteration(TopologyCache(base_model, _flat_profiles(), config), 0, script=script)
    b = run_iteration(TopologyCache(big_model, _flat_profiles(), config), 0, script=script)
    for bus in a.ens_mwh:
        assert b.ens_mwh[bus] == pytest.approx(2 * a.ens_mwh[bus], rel=1e-12)


def test_ledger_accumulators_are_nonnegative(ieee33_spec, bundled_profiles,
                                             cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case2"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=1, master_seed=8)
    ledger = run_iteration(TopologyCache(model, profiles, config, cost_table), 0)
    assert all(v >= 0 for v in ledger.outage_hours.values())
    assert all(v >= 0 for v in ledger.ens_mwh.values())
    assert all(v >= 0 for v in ledger.interruptions.values())


def test_ledger_starts_every_load_point_at_zero_in_load_point_order():
    ledger = HistoryLedger(load_points=("B3", "B1"), customers={"B3": 1, "B1": 2},
                           categories={}, horizon_h=10.0, increment_h=1.0)
    for sums in (ledger.interruptions, ledger.outage_hours, ledger.ens_mwh):
        assert list(sums.items()) == [("B3", 0.0), ("B1", 0.0)]
    assert ledger.interruptions is not ledger.outage_hours
    with pytest.raises(TypeError):
        HistoryLedger(load_points=("B1",), customers={"B1": 1}, categories={},
                      horizon_h=10.0, increment_h=1.0, ens_mwh={"B1": 1.0})
