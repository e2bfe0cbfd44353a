"""Jumping over static runs against stepping every increment.

`SequentialSimulation` accrues a whole run of a static switching state in
one step, and in a stepped increment gives each steady sub-system its
certificate's verdict. `_Stepping` turns both off: it accrues every
increment on its own and withdraws every certificate (`steady`) from the
compiled states, so `_shed_verdict` judges every sub-system of every
electrically active increment. Full ledgers,
events and warnings included, must be equal. The certificate is also
checked against `_shed_verdict` on its own, increment by increment.
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
from gridrel.timeseries import ProfileSet

_INCREMENTS = (1.0, 0.5, 0.25, 1.0 / 12.0)


class _Jumping(SequentialSimulation):
    """The engine as it is, counting the calls that accrue, and the stepped
    ones among them that hold a steady sub-system."""

    cache = TopologyCache
    steps = 0
    mixed = 0

    def _accrue(self, t, subsystems):
        self.steps += 1
        steady = [sub.steady for sub in subsystems]
        if self._electrical_fault_active() and any(steady) and not all(steady):
            self.mixed += 1
        return super()._accrue(t, subsystems)


class _UncertifiedCache(TopologyCache):
    """Every compiled state with the certificates of its sub-systems withdrawn."""

    def _compile(self, failed, open_switches):
        return tuple(replace(sub, steady=False)
                     for sub in super()._compile(failed, open_switches))


class _Stepping(_Jumping):
    """The engine with the jump turned off: every increment is accrued on
    its own, and no sub-system is steady, so `_shed_verdict` judges every
    sub-system of every electrically active increment."""

    cache = _UncertifiedCache

    def _accrue(self, t, subsystems):
        super()._accrue(t, subsystems)
        return t + 1


def _run(cls, model, profiles, config, cost_table=None, script=None):
    """Ledgers of every iteration, seeded as `run_iteration` seeds them, the
    number of accruing calls and the number of stepped ones holding a steady
    sub-system."""
    topology = cls.cache(model, profiles)
    ledgers, steps, mixed = [], 0, 0
    for i in range(config.iterations):
        sim = cls(model, profiles, config, np.random.default_rng([config.master_seed, i]),
                  script=script, cost_table=cost_table, topology=topology)
        ledgers.append(sim.run())
        steps += sim.steps
        mixed += sim.mixed
    return ledgers, steps, mixed


def _assert_jumping_equals_stepping(model, profiles, config, cost_table=None,
                                    script=None):
    jumped, jumps, mixed = _run(_Jumping, model, profiles, config, cost_table, script)
    stepped, steps, _ = _run(_Stepping, model, profiles, config, cost_table, script)
    for a, b in zip(jumped, stepped):
        assert a == b
    return jumps, steps, mixed


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
    jumps, steps, mixed = _assert_jumping_equals_stepping(model, profiles, config,
                                                          cost_table)
    assert jumps < steps
    # islands with sources step beside the steady grid-fed part
    assert (mixed > 0) == (case in ("case2", "case4"))


def test_validation_feeder_jumps_to_the_ledgers_stepping_writes(validation6):
    config = SimulationConfig(iterations=200, master_seed=17)
    jumps, steps, _ = _assert_jumping_equals_stepping(validation6, ProfileSet(1.0, 8760.0),
                                                      config)
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
    _, _, mixed = _assert_jumping_equals_stepping(model, profiles, config, cost_table,
                                                  script)
    # stepped, each beside a steady sub-system: the sectioning hour, B01 dark
    # behind the open breaker, and the four repair hours
    assert mixed == 5
    ledger = run_iteration(model, profiles, config, 0, script=script,
                           cost_table=cost_table)
    assert ledger.outage_hours["B05"] == 8.0
    assert ledger.interruptions["B05"] == 1.0
    assert [ev for ev in ledger.events if ev[1] == "B05"] == [
        (8.0, "B05", "transformer_fault"), (8.0, "B05", "interrupted")]
    peak_mw, _, curve = TopologyCache(model, profiles).loads["B05"]
    assert ledger.ens_mwh["B05"] == pytest.approx(peak_mw * curve[8:16].sum())


@pytest.mark.parametrize("increment_h", _INCREMENTS)
@pytest.mark.parametrize("text", [_V6_SMALL_LINE, _V6_SMALL_FEEDER],
                         ids=["small-line", "small-feeder"])
def test_limits_below_the_peak_keep_their_states_stepping(text, increment_h,
                                                          bundled_profiles):
    model = build_network(parse_network_text(text))
    profiles = _profiles("doubled", increment_h, 48.0, bundled_profiles)
    config = SimulationConfig(increment_h=increment_h, horizon_h=48.0)
    cache = TopologyCache(model, profiles)
    assert not all(sub.steady for sub in cache.state((), ()))
    assert not all(sub.steady for sub in cache.state({"VL5"}, {"VL5"}))
    # the certificate belongs to the profile set its cache is built for
    flat = TopologyCache(model, _profiles("flat", increment_h, 48.0, bundled_profiles))
    (normal,) = flat.state((), ())  # static, and no bus out
    assert normal.steady and normal.grid_bus is not None
    jumps, steps, _ = _assert_jumping_equals_stepping(
        model, profiles, config, script=[ScriptedFault(10.0, "VL5")])
    # only the 1 h of manual sectioning, with the breaker open, is one run
    assert jumps == steps - (round(1.0 / increment_h) - 1)
    # with the bundled residential profile the limits carry the peak: one
    # run for sectioning, one for the repair, one from the repair's end on
    jumps, steps, _ = _assert_jumping_equals_stepping(
        model, _profiles("bundled", increment_h, 48.0, bundled_profiles), config,
        script=[ScriptedFault(10.0, "VL5")])
    assert jumps == 3


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
    sim = SequentialSimulation(model, profiles, config, np.random.default_rng(0), script=[])
    sim.repairs = {("transformer", b): (config.n_increments, True) for b in tx_down}
    steady = [sub for state in states for sub in sim.topology.state(*state) if sub.steady]
    rng_state = sim.rng.bit_generator.state
    for t in range(config.n_increments):
        for sub in steady:
            live_demand = sim.topology.live_demand(sub.buses, t, tx_down)
            verdict = sim._shed_verdict(sub, t, live_demand,
                                        dict.fromkeys(sim.was_islanded, False))
            assert verdict == (None if sub.grid_bus is None else {})
    assert sim.rng.bit_generator.state == rng_state
    assert not sim.ledger.warnings


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
    topology = TopologyCache(model, profiles)
    for seed in range(40):
        sim = SequentialSimulation(model, profiles, config, np.random.default_rng(seed),
                                   topology=topology)
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
