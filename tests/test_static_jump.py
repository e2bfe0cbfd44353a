"""Jumping over static runs and dark islands against stepping every increment.

`SequentialSimulation` accrues a whole run of a static switching state in
one step, in a stepped increment gives each steady sub-system its
certificate's verdict, and accrues a sub-system dark for want of a source up
to the next increment at which one of its units has power. `_Stepping` turns
all three off: it accrues every increment on its own, withdraws every
certificate (`steady`) from the compiled states, so `_shed_verdict`
evaluates every sub-system of every electrically active increment, and ends
every dark run after its first increment. Full ledgers, events and warnings
included, and the random streams left behind must be equal. The certificate
is also checked against `_shed_verdict`'s evaluation on its own, increment
by increment, and `_shed_verdict` must judge every sub-system, steady or not.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.engine import (
    ScriptedFault, SequentialSimulation, SimulationConfig, TopologyCache, run_iteration,
)
from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import build_network
from gridrel.scenarios import SCENARIOS, apply_scenario, bundled_validation_path
from gridrel.stochastic import draw_battery_soc
from gridrel.timeseries import PRODUCTION, ProfileSet, TimeSeries

_INCREMENTS = (1.0, 0.5, 0.25, 1.0 / 12.0)


class _Jumping(SequentialSimulation):
    """The engine as it is, recording the (start, stop) of each call that
    accrues, and counting the ones among them that hold both a steady and a
    judged sub-system."""

    cache = TopologyCache
    mixed = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs = []

    def _accrue(self, t, subsystems):
        steady = [sub.steady for sub in subsystems]
        if self._electrical_fault_active() and any(steady) and not all(steady):
            self.mixed += 1
        stop = super()._accrue(t, subsystems)
        self.runs.append((t, stop))
        return stop


class _UncertifiedCache(TopologyCache):
    """Every compiled state with the certificates of its sub-systems withdrawn,
    and no dark run lasting past its first increment."""

    def _compile(self, failed, open_switches):
        return tuple(replace(sub, steady=False)
                     for sub in super()._compile(failed, open_switches))

    def next_production(self, units, t):
        return t + 1


class _Stepping(_Jumping):
    """The engine with the jump turned off: every increment is accrued on
    its own, and no sub-system is steady, so `_shed_verdict` evaluates every
    sub-system of every electrically active increment."""

    cache = _UncertifiedCache

    def _accrue(self, t, subsystems):
        super()._accrue(t, subsystems)
        return t + 1


def _run(cls, model, profiles, config, cost_table=None, script=None):
    """Ledgers and random-stream states of every iteration, seeded as
    `run_iteration` seeds them, the (start, stop) of every accruing call and
    the number of them holding both a steady and a judged sub-system."""
    topology = cls.cache(model, profiles, config, cost_table)
    ledgers, streams, runs, mixed = [], [], [], 0
    for i in range(config.iterations):
        sim = cls(topology, np.random.default_rng([config.master_seed, i]), script=script)
        ledgers.append(sim.run())
        streams.append(sim.rng.bit_generator.state)
        runs += sim.runs
        mixed += sim.mixed
    return ledgers, streams, runs, mixed


def _assert_jumping_equals_stepping(model, profiles, config, cost_table=None,
                                    script=None):
    """Number of accruing calls jumping and stepping, the jumping ones
    holding both a steady and a judged sub-system, and the jumping runs."""
    jumped, jumped_streams, runs, mixed = _run(_Jumping, model, profiles, config,
                                               cost_table, script)
    stepped, stepped_streams, steps, _ = _run(_Stepping, model, profiles, config,
                                              cost_table, script)
    for a, b in zip(jumped, stepped):
        assert a == b
    assert jumped_streams == stepped_streams
    return len(runs), len(steps), mixed, runs


# -- the presets and the 6-bus feeder -------------------------------------


@pytest.mark.parametrize("case, increment_h, iterations", [
    *((case, 1.0, 40) for case in SCENARIOS),
    *((case, 0.5, 30) for case in SCENARIOS),
    ("case1", 1.0 / 12.0, 12),
    ("case3", 1.0 / 12.0, 12),
])
def test_presets_jump_to_the_ledgers_stepping_writes(case, increment_h, iterations,
                                                     ieee33_spec, bundled_profiles,
                                                     cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(increment_h, 8760.0, loads, wind)
    config = SimulationConfig(increment_h=increment_h, iterations=iterations,
                              master_seed=17)
    jumps, steps, mixed, _ = _assert_jumping_equals_stepping(model, profiles, config,
                                                             cost_table)
    assert jumps < steps
    # islands with sources step beside the steady grid-fed part
    assert (mixed > 0) == (case in ("case2", "case4"))


def test_validation_feeder_jumps_to_the_ledgers_stepping_writes(validation6):
    config = SimulationConfig(iterations=200, master_seed=17)
    jumps, steps, _, _ = _assert_jumping_equals_stepping(
        validation6, ProfileSet(1.0, 8760.0), config)
    assert jumps < steps


# -- scripted timelines ---------------------------------------------------

_V6 = Path(bundled_validation_path()).read_text()
_V6_SHORT_TX = _V6.replace("transformer_repair=8h", "transformer_repair=2.5h")
# With the doubled residential profile (multipliers 0.55-1.59) a certificate
# must fail on these: VL2 carries 0.6 MW of the 0.79 MW peak below it, the
# feeder 1.5 MW of its 2.06 MW peak. The low hours fit, the peak hours shed.
_V6_RESIDENTIAL = _V6.replace("profile=flat", "profile=residential")
_V6_SMALL_LINE = _V6_RESIDENTIAL.replace(
    "VL2 from=VB2 to=VB3 r_pu=0.012 x_pu=0.009 capacity_mw=10",
    "VL2 from=VB2 to=VB3 r_pu=0.012 x_pu=0.009 capacity_mw=0.6")
_V6_SMALL_FEEDER = _V6_RESIDENTIAL.replace("dist DS1 root=VB1",
                                           "dist DS1 root=VB1 feeder_capacity_mw=1.5")
_V6_TEXTS = {"v6": _V6, "v6-short-tx": _V6_SHORT_TX, "v6-small-line": _V6_SMALL_LINE,
             "v6-small-feeder": _V6_SMALL_FEEDER}


def _profiles(kind, increment_h, horizon_h, bundled):
    loads, wind = bundled
    if kind == "doubled":
        loads = {name: replace(series, values=tuple(2.0 * v for v in series.values))
                 for name, series in loads.items()}
    elif kind == "flat":
        loads = wind = {}  # flat, and every named profile missing
    return ProfileSet(increment_h, horizon_h, loads, wind)


@pytest.mark.parametrize("increment_h", _INCREMENTS)
@pytest.mark.parametrize("text, faults, profiles", [
    # a transformer repair (2 increments at 1 h) ends inside the VL4 run
    (_V6_SHORT_TX, [(10.0, "VL4"), (11.0, "VB4")], "flat"),
    # an 8 h transformer repair, a whole number of increments, ends silently
    (_V6, [(10.0, "VL5"), (12.0, "VB4")], "flat"),
    # the repair runs into the horizon
    (_V6, [(46.0, "VL2")], "flat"),
    (_V6_SMALL_LINE, [(10.0, "VL5"), (20.0, "VB4"), (30.0, "VL3")], "doubled"),
    (_V6_SMALL_FEEDER, [(10.0, "VL5"), (20.0, "VB4"), (30.0, "VL3")], "doubled"),
])
def test_scripted_timelines_jump_to_the_ledgers_stepping_writes(
        text, faults, profiles, increment_h, bundled_profiles):
    model = build_network(parse_network_text(text))
    config = SimulationConfig(increment_h=increment_h, horizon_h=48.0)
    script = [ScriptedFault(t, c) for t, c in faults]
    _assert_jumping_equals_stepping(
        model, _profiles(profiles, increment_h, 48.0, bundled_profiles), config,
        script=script)


def test_wind_island_steps_beside_a_transformer_repair_in_the_grid_fed_part(
        ieee33_spec, bundled_profiles, cost_table):
    # B05's transformer is down from 8 h to 16 h. L13 fails at 10 h; after
    # the hour of manual sectioning its section is cut out, and until 15 h
    # B15..B18 run islanded on the wind unit at B15, while the grid-fed part,
    # B05 in it, and B14, cut off alone, are steady
    model = _model("case2", ieee33_spec)
    profiles = _profiles("bundled", 1.0, 48.0, bundled_profiles)
    config = SimulationConfig(horizon_h=48.0)
    script = [ScriptedFault(8.0, "B05"), ScriptedFault(10.0, "L13")]
    _, _, mixed, _ = _assert_jumping_equals_stepping(model, profiles, config, cost_table,
                                                     script)
    # beside a steady sub-system: the sectioning hour, stepped, B01 dark behind
    # the open breaker, and the four repair hours as one dark run, because the
    # wind unit has no power before 16 h
    assert mixed == 2
    topology = TopologyCache(model, profiles, config, cost_table)
    ledger = run_iteration(topology, 0, script=script)
    assert ledger.outage_hours["B05"] == 8.0
    assert ledger.interruptions["B05"] == 1.0
    assert [ev for ev in ledger.events if ev[1] == "B05"] == [
        (8.0, "B05", "transformer_fault"), (8.0, "B05", "interrupted")]
    peak_mw, _, curve = topology.loads["B05"]
    assert ledger.ens_mwh["B05"] == pytest.approx(peak_mw * curve[8:16].sum())


@pytest.mark.parametrize("increment_h", _INCREMENTS)
@pytest.mark.parametrize("text", [_V6_SMALL_LINE, _V6_SMALL_FEEDER],
                         ids=["small-line", "small-feeder"])
def test_limits_below_the_peak_keep_their_states_stepping(text, increment_h,
                                                          bundled_profiles):
    model = build_network(parse_network_text(text))
    profiles = _profiles("doubled", increment_h, 48.0, bundled_profiles)
    config = SimulationConfig(increment_h=increment_h, horizon_h=48.0)
    cache = TopologyCache(model, profiles, config)
    assert not all(sub.steady for sub in cache.state((), ()))
    assert not all(sub.steady for sub in cache.state({"VL5"}, {"VL5"}))
    # the certificate belongs to the profile set its cache is built for
    flat = TopologyCache(model, _profiles("flat", increment_h, 48.0, bundled_profiles),
                         config)
    (normal,) = flat.state((), ())  # static, and no bus out
    assert normal.steady and normal.grid_bus is not None
    jumps, steps, _, _ = _assert_jumping_equals_stepping(
        model, profiles, config, script=[ScriptedFault(10.0, "VL5")])
    # only the 1 h of manual sectioning, with the breaker open, is one run
    assert jumps == steps - (round(1.0 / increment_h) - 1)
    # with the bundled residential profile the limits carry the peak: one
    # run for sectioning, one for the repair, one from the repair's end on
    jumps, steps, _, _ = _assert_jumping_equals_stepping(
        model, _profiles("bundled", increment_h, 48.0, bundled_profiles), config,
        script=[ScriptedFault(10.0, "VL5")])
    assert jumps == 3


# -- dark islands -------------------------------------------------------------

# L2's sectioning hour islands B3..B6 behind the open breaker, and its repair
# B4..B6, B3 being cut out with L2's section; L4's repair leaves B5 alone
# with its battery. W1 and W2 follow the "wind" and "wind2" series, every
# load the "load" series.
_ISLAND = """
[network]
id = ISL
base_mva = 10
base_kv = 12.66
[systems]
dist DS1 root=B1
[buses]
B1 customers=0
B2 customers=10 load_mw=0.2 load_mvar=0.05 category=general profile=load
B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general profile=load
B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general profile=load
B5 customers=10 load_mw=0.1 load_mvar=0.02 category=general profile=load
B6 customers=10 load_mw=0.1 load_mvar=0.02 category=general profile=load
[lines]
L1 from=B1 to=B2 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L2 from=B2 to=B3 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=20h
L3 from=B3 to=B4 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
L4 from=B4 to=B5 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=12h
L5 from=B4 to=B6 r_pu=0.01 x_pu=0.01 capacity_mw=10 rate=0 repair=4h
[switchgear]
CB kind=breaker line=L1 end=from state=closed
D1 kind=disconnector line=L1 end=from state=closed
D2 kind=disconnector line=L2 end=from state=closed
D3 kind=disconnector line=L3 end=from state=closed
D4 kind=disconnector line=L4 end=from state=closed
[production]
W1 bus=B4 max_mw=1.0 profile=wind
W2 bus=B6 max_mw=1.0 profile=wind2
[batteries]
BAT bus=B5 capacity_mwh=0.3 inverter_mw=0.5 soc_min=0.2 soc_max=0.9
"""


def _step_profiles(increment_h, load=lambda h: 1.0, wind=lambda h: 0.0,
                   wind2=lambda h: 0.0):
    """Series over 48 h at the increment itself, so no value is interpolated,
    each a function of the hour an increment starts at."""
    hours = [i * increment_h for i in range(round(48.0 / increment_h))]
    return ProfileSet(increment_h, 48.0,
                      {"load": TimeSeries("load", increment_h, tuple(map(load, hours)))},
                      {name: TimeSeries(name, increment_h, tuple(map(f, hours)), PRODUCTION)
                       for name, f in (("wind", wind), ("wind2", wind2))})


def _jumped_runs(text, profiles, faults):
    """The (start, stop) hours of every accruing call, after checking that
    jumping writes the ledgers and leaves the random stream stepping does."""
    model = build_network(parse_network_text(text))
    config = SimulationConfig(increment_h=profiles.increment_h, horizon_h=48.0)
    *_, runs = _assert_jumping_equals_stepping(
        model, profiles, config, script=[ScriptedFault(t, c) for t, c in faults])
    return [(t * config.increment_h, stop * config.increment_h) for t, stop in runs]


_DARK_INCREMENTS = (1.0, 0.25, 1.0 / 12.0)


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_dark_island_runs_until_the_wind_returns(increment_h):
    # B4..B6 is islanded from 11 h to 31 h; its battery drains, then the
    # island is dark until the wind returns at 18 h and charges it, and is
    # dark again once the battery has drained after 22 h
    profiles = _step_profiles(increment_h, wind=lambda h: 0.8 if 18.0 <= h < 22.0 else 0.0)
    runs = _jumped_runs(_ISLAND, profiles, [(10.0, "L2")])
    assert any(start <= 12.0 and stop == 18.0 for start, stop in runs)
    assert any(22.0 < start <= 24.0 and stop == 31.0 for start, stop in runs)


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_dark_island_with_its_battery_at_soc_min(increment_h):
    # no wind: the battery discharges to soc_min and the island stays dark
    # until L2's repair ends
    runs = _jumped_runs(_ISLAND, _step_profiles(increment_h), [(10.0, "L2")])
    assert any(start <= 12.0 and stop == 31.0 for start, stop in runs)


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_islanding_onset_starts_a_dark_run(increment_h):
    # a battery with soc_min = soc_max can neither discharge nor charge, so
    # the island is dark from the increment that draws its SOC, which the
    # stream comparison sees, until the wind comes at 20 h; L4's fault at
    # 40 h islands the battery again, and draws again
    text = _ISLAND.replace("soc_min=0.2 soc_max=0.9", "soc_min=0.2 soc_max=0.2")
    profiles = _step_profiles(increment_h, wind=lambda h: 0.8 if h >= 20.0 else 0.0)
    runs = _jumped_runs(text, profiles, [(10.0, "L2"), (40.0, "L4")])
    assert (10.0, 11.0) in runs and (11.0, 20.0) in runs


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_battery_only_island_runs_to_the_next_health_change(increment_h):
    # B5 is alone with its battery from 11 h until L4's repair ends at 23 h;
    # the wind unit at B4 feeds the grid-fed part, not B5
    profiles = _step_profiles(increment_h, wind=lambda h: 0.8)
    runs = _jumped_runs(_ISLAND, profiles, [(10.0, "L4")])
    assert any(start <= 12.0 and stop == 23.0 for start, stop in runs)


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_units_below_the_source_threshold_end_a_dark_run(increment_h):
    # in the 15 h hour W1 and W2 each have 6e-10 MW, no source alone, and the
    # loads demand nothing: together the units leave a 1.2e-9 MW surplus that
    # the drained battery could store, which makes it a source, so the island
    # is served in full, not dark, and the dark run must end there
    profiles = _step_profiles(increment_h,
                              load=lambda h: 0.0 if 15.0 <= h < 16.0 else 1.0,
                              wind=lambda h: 6e-10 if 15.0 <= h < 16.0 else 0.0,
                              wind2=lambda h: 6e-10 if 15.0 <= h < 16.0 else 0.0)
    runs = _jumped_runs(_ISLAND, profiles, [(10.0, "L2")])
    assert any(start <= 12.0 and stop == 15.0 for start, stop in runs)
    assert (16.0, 31.0) in runs


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_a_battery_that_can_discharge_keeps_its_dark_island_stepping(increment_h):
    # the loads demand nothing before 12 h, so the island has no source and is
    # dark, although its battery holds energy that it discharges from 12 h on
    profiles = _step_profiles(increment_h, load=lambda h: 0.0 if h < 12.0 else 1.0)
    runs = _jumped_runs(_ISLAND, profiles, [(10.0, "L2")])
    assert all(stop - start == pytest.approx(increment_h)
               for start, stop in runs if 10.0 <= start < 12.0)


@pytest.mark.parametrize("increment_h", _DARK_INCREMENTS)
def test_an_island_with_a_battery_and_a_load_below_zero_is_stepped(increment_h):
    # in the 15 h hour every load is below zero, so the drained battery may
    # charge and the island is served; an island holding a battery and a
    # load that can fall below zero is stepped throughout
    profiles = _step_profiles(increment_h, load=lambda h: -0.5 if 15.0 <= h < 16.0 else 1.0)
    runs = _jumped_runs(_ISLAND, profiles, [(10.0, "L2")])
    assert all(stop - start == pytest.approx(increment_h)
               for start, stop in runs if 10.0 <= start < 31.0)


_MODELS = {}


def _model(source, ieee33_spec):
    if source not in _MODELS:
        _MODELS[source] = build_network(
            apply_scenario(ieee33_spec, source) if source.startswith("case")
            else parse_network_text(_V6_TEXTS[source]))
    return _MODELS[source]


# every (source, profile kind) pair is tried; hypothesis draws the rest
@pytest.mark.parametrize("profiles", ["bundled", "doubled", "flat"])
@pytest.mark.parametrize("source", ["case1", "case3", "case4", *_V6_TEXTS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_jumping_equals_stepping_on_scripted_faults(data, source, profiles, ieee33_spec,
                                                    bundled_profiles, cost_table):
    model = _model(source, ieee33_spec)
    components = (*model.line_ids, *(b for b in model.bus_ids
                                     if model.buses[b].transformer is not None))
    if model.ict.controller is not None:
        components += (model.ict.controller.id + "/hw", model.ict.controller.id + "/sw",
                       *(s.id for s in model.ict.sensors[:4]),
                       *(i.id for i in model.ict.intelligent_switches[:4]))
    increment_h = data.draw(st.sampled_from(_INCREMENTS))
    faults = data.draw(st.lists(st.tuples(st.integers(0, 191), st.sampled_from(components)),
                                min_size=1, max_size=5))
    config = SimulationConfig(increment_h=increment_h, horizon_h=48.0)
    _assert_jumping_equals_stepping(model, _profiles(profiles, increment_h, 48.0,
                                                     bundled_profiles),
                                    config, cost_table,
                                    script=[ScriptedFault(q / 4.0, c) for q, c in faults])


# -- the certificate against the general path ------------------------------


@pytest.mark.parametrize("profiles", ["bundled", "doubled", "flat"])
@pytest.mark.parametrize("source", [*SCENARIOS, *_V6_TEXTS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_steady_subsystems_are_served_in_full_or_dark_at_every_increment(
        data, source, profiles, ieee33_spec, bundled_profiles):
    model = _model(source, ieee33_spec)
    states = [((), ())]  # the normal state, and up to three drawn ones
    for _ in range(data.draw(st.integers(0, 3))):
        failed = data.draw(st.frozensets(st.sampled_from(model.line_ids), min_size=1))
        states.append((failed, data.draw(st.frozensets(st.sampled_from(sorted(failed))))))
    transformers = [b for b in model.bus_ids if model.buses[b].transformer is not None]
    tx_down = (data.draw(st.frozensets(st.sampled_from(transformers)))
               if transformers else frozenset())
    profiles = _profiles(profiles, 1.0, 168.0, bundled_profiles)
    config = SimulationConfig(horizon_h=168.0)
    sim = SequentialSimulation(TopologyCache(model, profiles, config),
                               np.random.default_rng(0), script=[])
    sim.repairs = {("transformer", b) for b in tx_down}
    # each steady sub-system, judged by the evaluation it is spared
    steady = [replace(sub, steady=False)
              for state in states for sub in sim.topology.state(*state) if sub.steady]
    rng_state = sim.rng.bit_generator.state
    for t in range(config.n_increments):
        for sub in steady:
            verdict, until = sim._shed_verdict(sub, t, tx_down, set())
            assert verdict == (None if sub.grid_bus is None else {})
            # a sourceless island is dark to the horizon
            assert until == (config.n_increments if sub.grid_bus is None else t + 1)
    assert sim.rng.bit_generator.state == rng_state
    assert not sim.ledger.warnings


class _Judging(SequentialSimulation):
    """The engine, noting each sub-system `_shed_verdict` judges and, at each
    electrically active increment, the sub-systems of its state and those
    judged there."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.judged, self.increments = [], []

    def _accrue(self, t, subsystems):
        self.judged = []
        stop = super()._accrue(t, subsystems)
        if self._electrical_fault_active():
            self.increments.append((subsystems, self.judged))
        return stop

    def _shed_verdict(self, sub, *args):
        self.judged.append(sub)
        return super()._shed_verdict(sub, *args)


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_every_subsystem_of_an_active_increment_is_judged(case, ieee33_spec,
                                                          bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    config = SimulationConfig(iterations=40, master_seed=2024)
    topology = TopologyCache(model, ProfileSet(1.0, 8760.0, loads, wind), config, cost_table)
    increments = []
    for i in range(config.iterations):
        sim = _Judging(topology, np.random.default_rng([config.master_seed, i]))
        sim.run()
        increments += sim.increments
    assert increments
    for subsystems, judged in increments:
        assert subsystems and len(judged) == len(subsystems)
        assert all(a is b for a, b in zip(judged, subsystems))
    steady = [sub.steady for subsystems, _ in increments for sub in subsystems]
    # case1 meets only steady sub-systems; case2's islands are evaluated too
    assert all(steady) == (case == "case1") and any(steady)


# -- initial failure draws -------------------------------------------------


@pytest.mark.parametrize("case", [*SCENARIOS, "validation6"])
@pytest.mark.parametrize("increment_h", [1.0, 1.0 / 12.0])
def test_initial_schedule_is_the_one_scalar_draws_give(case, increment_h, ieee33_spec):
    if case == "validation6":
        model = build_network(parse_network_file(bundled_validation_path()))
    else:
        model = build_network(apply_scenario(ieee33_spec, case))
    config = SimulationConfig(increment_h=increment_h)
    profiles = ProfileSet(increment_h, 8760.0)
    topology = TopologyCache(model, profiles, config)
    for seed in range(40):
        sim = SequentialSimulation(topology, np.random.default_rng(seed))
        # one scalar draw per component in key order, after the SOC draws
        rng = np.random.default_rng(seed)
        for _, bat in sorted(model.batteries.items()):
            draw_battery_soc(bat, rng)
        schedule = {}
        for key, p in topology.failure_p.items():
            if p > 0.0:
                k = int(rng.geometric(p))
                if k - 1 < config.n_increments:
                    schedule.setdefault(k - 1, []).append(key)
        assert sim.schedule == schedule
        assert sim.rng.random() == rng.random()
