"""The per-run topology cache against topology computed from scratch.

The engine compiles each switching state (failed lines, open disconnectors)
once into a `TopologyCache` entry, the open disconnectors following from the
isolated lines. These tests check the entries the engine uses on real IEEE-33
runs, with the isolated lines replayed from the ledger's events, and entries
of generated states of IEEE-33 and the 6-bus feeder, against oracles that
rescan the model, and check that a cache lives no longer than its run and
serves only the model and profile set it was built for.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.engine import (
    SequentialSimulation, SimulationConfig, TopologyCache, run_iteration,
    run_monte_carlo,
)
from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import build_network, connected_components
from gridrel.scenarios import apply_scenario, bundled_validation_path
from gridrel.timeseries import PRODUCTION, ProfileSet, TimeSeries

from conftest import CHAIN4
from oracles import reference_breakers, reference_grid_flows_ok, reference_lines_inside


def _switches_cutting_out(model, isolated):
    """Switch id -> closed, with the sections of `isolated` cut out; the
    breakers keep their normal state, which the oracle does not read."""
    closed = model.normal_switch_states()
    for line_id in isolated:
        closed.update(dict.fromkeys(model.sections[line_id].boundary_disconnectors, False))
    return closed


def _assert_matches_reference(model, subsystems, switch_closed, failed, demand):
    """`switch_closed` sets the disconnectors; the breakers come from the oracle."""
    closed = {**switch_closed, **reference_breakers(model, switch_closed, failed)}
    assert [sub.buses for sub in subsystems] == connected_components(
        model, closed, failed)
    for sub in subsystems:
        assert [line.id for line in sub.lines] == reference_lines_inside(
            model, set(sub.buses), closed, failed)
        feeders = [d for d in model.distribution_systems
                   if d.root_bus in sub.buses and closed[model.breaker_of_system[d.id]]]
        if not feeders:
            assert (sub.grid_bus, sub.grid_limit) == (None, 0.0)
            continue
        assert (sub.grid_bus, sub.grid_limit) == (
            feeders[0].root_bus, model.feeder_capacity[feeders[0].id])
        lines = [(l.id, l.from_bus, l.to_bus, l.capacity_mw) for l in sub.lines]
        assert sub.grid_flows_within_caps(demand) == reference_grid_flows_ok(
            sub.grid_bus, lines, demand)


class _CheckedSimulation(SequentialSimulation):
    """Checks the sub-systems of every electrically active increment.

    The hook sits where both the stepped and the jumped accrual receive the
    sub-systems; a jumped run keeps them until its last increment, and each
    of its increments is checked with its own demand. The isolated lines are
    replayed from the ledger: a line is isolated from its `isolated` event
    until its `line_repaired` event.
    """

    checked = 0

    def _accrue(self, t, subsystems):
        stop = super()._accrue(t, subsystems)
        if not self._electrical_fault_active():
            return stop
        isolated = set()
        for _, ident, kind in self.ledger.events:
            if kind == "isolated":
                isolated.add(ident)
            elif kind == "line_repaired":
                isolated.discard(ident)
        failed = set(self.faults)
        down = {b for kind, b in self.repairs if kind == "transformer"}
        for tau in range(t, stop):
            live = self.topology.live_demand(self.topology.loads, tau, down)
            _assert_matches_reference(self.model, subsystems,
                                      _switches_cutting_out(self.model, isolated),
                                      failed, live)
            self.checked += 1
        return stop


@pytest.mark.parametrize("case", ["case1", "case2", "case3", "case4"])
def test_cached_states_match_reference_on_ieee33_runs(case, ieee33_spec,
                                                      bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=20, master_seed=7)
    topology = TopologyCache(model, profiles)
    checked = 0
    for i in range(config.iterations):
        sim = _CheckedSimulation(model, profiles, config,
                                 np.random.default_rng([config.master_seed, i]),
                                 cost_table=cost_table, topology=topology)
        ledger = sim.run()
        checked += sim.checked
        # a cache shared across iterations gives what a fresh one gives
        assert ledger == run_iteration(model, profiles, config, i, cost_table=cost_table)
    assert checked > 100
    assert topology.hits > topology.misses > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_state_matches_reference_on_generated_states(ieee33, validation6, data):
    model = data.draw(st.sampled_from([ieee33, validation6]))
    failed = data.draw(st.frozensets(st.sampled_from(model.line_ids)))
    isolated = (data.draw(st.frozensets(st.sampled_from(sorted(failed))))
                if failed else frozenset())
    # half-MW steps add up exactly in any order, so no verdict rests on rounding
    steps = data.draw(st.lists(st.integers(0, 8), min_size=len(model.bus_ids),
                               max_size=len(model.bus_ids)))
    demand = {b: 0.5 * k for b, k in zip(model.bus_ids, steps)}

    profiles = ProfileSet(1.0, 48.0)
    cache = TopologyCache(model, profiles)
    entry = cache.state(failed, isolated)
    _assert_matches_reference(model, entry, _switches_cutting_out(model, isolated),
                              failed, demand)
    # the key is the set of failed lines and the set of open disconnectors
    assert cache.state(dict.fromkeys(failed), sorted(isolated, reverse=True)) is entry
    assert (cache.hits, cache.misses) == (1, 1)
    assert TopologyCache(model, profiles).state(failed, isolated) == entry


def test_case3_hits_the_cache_at_least_nine_times_in_ten(ieee33_spec, bundled_profiles,
                                                        cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case3"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=200, master_seed=2024)
    topology = TopologyCache(model, profiles)
    for i in range(config.iterations):
        run_iteration(model, profiles, config, i, cost_table=cost_table, topology=topology)
    assert topology.misses > 0
    assert topology.hits >= 0.9 * (topology.hits + topology.misses)


def test_no_cache_outlives_run_monte_carlo():
    model = build_network(parse_network_file(bundled_validation_path()))
    ledgers = run_monte_carlo(model, ProfileSet(1.0, 8760.0),
                              SimulationConfig(iterations=4, master_seed=5))
    assert any(ledger.events for ledger in ledgers)
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None


def test_cache_of_another_model_is_rejected(ieee33, validation6):
    profiles = ProfileSet(1.0, 48.0)
    with pytest.raises(ValueError, match="another model or profile set"):
        SequentialSimulation(ieee33, profiles,
                             SimulationConfig(horizon_h=48.0), np.random.default_rng(0),
                             topology=TopologyCache(validation6, profiles))


def test_cache_of_another_profile_set_is_rejected(validation6):
    # an equal set, but another object: a cache's demand bounds belong to
    # the one set it was built for
    with pytest.raises(ValueError, match="another model or profile set"):
        SequentialSimulation(validation6, ProfileSet(1.0, 48.0),
                             SimulationConfig(horizon_h=48.0), np.random.default_rng(0),
                             topology=TopologyCache(validation6, ProfileSet(1.0, 48.0)))


def test_each_load_point_and_unit_is_bound_to_its_curve_once():
    model = build_network(parse_network_text(
        CHAIN4.replace("B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general",
                       "B4 customers=10 load_mw=0.1 load_mvar=0.02 profile=res\nB5")
        + "[lines]\nL4 from=B4 to=B5 r_pu=0.01 x_pu=0.01 capacity_mw=10\n"
        + "[production]\nW bus=B3 max_mw=1.0 profile=wind\nV bus=B4 max_mw=0.4\n"
        + "U bus=B2 max_mw=2 profile=nope\n"))
    wind = (-1.0, 0.5, 9.0, 1.0)
    profiles = ProfileSet(1.0, 8.0, {"res": TimeSeries("res", 0.0, 1.0, (0.5, 1.5))},
                          {"wind": TimeSeries("wind", 0.0, 1.0, wind, PRODUCTION)})
    cache = TopologyCache(model, profiles)
    # B5 has neither a load nor customers; B1 has customers=0 and no load
    assert list(cache.loads) == ["B2", "B3", "B4"]
    assert cache.loads["B4"][:2] == (0.1, 0.02)
    assert cache.loads["B4"][2] is profiles.load["res"]
    assert cache.loads["B2"][2] is cache.loads["B3"][2] is profiles.load_curve("flat")
    assert cache.bound == {"B2": 0.2, "B3": 0.3, "B4": 0.1 * 1.5}
    # available MW: the series clipped to [0, max_mw], or max_mw without one
    assert cache.caps["W"].tolist() == [0.0, 0.5, 1.0, 1.0] * 2
    assert cache.caps["V"].tolist() == [0.4] * 8
    assert cache.caps["U"].tolist() == [2.0] * 8


@pytest.mark.parametrize("with_cache", [False, True])
def test_profile_set_of_another_increment_is_rejected(validation6, with_cache):
    profiles = ProfileSet(0.5, 48.0)
    topology = TopologyCache(validation6, profiles) if with_cache else None
    with pytest.raises(ValueError, match="0.5 h increment, the run 1 h"):
        SequentialSimulation(validation6, profiles, SimulationConfig(horizon_h=48.0),
                             np.random.default_rng(0), topology=topology)
