"""The per-run topology cache against topology computed from scratch.

The engine compiles each switching state (failed lines, open disconnectors)
once into a `TopologyCache` entry. These tests check the entries the engine
uses on real IEEE-33 runs, and entries of generated states of IEEE-33 and
the 6-bus feeder, against oracles that rescan the model, and check that a
cache lives no longer than its run.
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
from gridrel.netfile import parse_network_file
from gridrel.network import BREAKER, build_network, connected_components
from gridrel.scenarios import apply_scenario, bundled_validation_path
from gridrel.timeseries import ProfileSet

from oracles import reference_breakers, reference_grid_flows_ok, reference_lines_inside


def _assert_matches_reference(model, state, switch_closed, failed, demand):
    """`switch_closed` sets the disconnectors; the breakers come from the oracle."""
    breakers = reference_breakers(model, switch_closed, failed)
    assert dict(state.breakers) == breakers
    closed = {**switch_closed, **breakers}
    assert [sub.buses for sub in state.subsystems] == connected_components(
        model, closed, failed)
    for sub in state.subsystems:
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
    """Checks the switching state of every evaluated increment, then uses it."""

    checked = 0

    def _evaluate_and_accrue(self, t, state):
        assert all(self.switch_closed[b] == closed for b, closed in state.breakers)
        failed = set(self.faults)
        demand, _ = self._demand_now(t)
        live = {b: d for b, d in demand.items() if ("transformer", b) not in self.repairs}
        _assert_matches_reference(self.model, state, self.switch_closed, failed, live)
        self.checked += 1
        super()._evaluate_and_accrue(t, state)


@pytest.mark.parametrize("case", ["case1", "case2", "case3", "case4"])
def test_cached_states_match_reference_on_ieee33_runs(case, ieee33_spec,
                                                      bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=20, master_seed=7)
    topology = TopologyCache(model, config.increment_h)
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
    breakers = [s for s, sw in model.switchgear.items() if sw.kind == BREAKER]
    disconnectors = [s for s, sw in model.switchgear.items() if sw.kind != BREAKER]
    failed = data.draw(st.frozensets(st.sampled_from(model.line_ids)))
    opened = data.draw(st.frozensets(st.sampled_from(disconnectors)))
    closed = {s: s not in opened for s in model.switchgear}
    closed.update((s, data.draw(st.booleans())) for s in breakers)
    # half-MW steps add up exactly in any order, so no verdict rests on rounding
    steps = data.draw(st.lists(st.integers(0, 8), min_size=len(model.bus_ids),
                               max_size=len(model.bus_ids)))
    demand = {b: 0.5 * k for b, k in zip(model.bus_ids, steps)}

    cache = TopologyCache(model, 1.0)
    entry = cache.state(failed, closed)
    _assert_matches_reference(model, entry, closed, failed, demand)
    # breaker positions are not part of the key
    flipped = {**closed, **{s: not closed[s] for s in breakers}}
    assert cache.state(dict.fromkeys(failed), flipped) is entry
    assert (cache.hits, cache.misses) == (1, 1)
    assert TopologyCache(model, 1.0).state(failed, closed) == entry


def test_case3_hits_the_cache_at_least_nine_times_in_ten(ieee33_spec, bundled_profiles,
                                                        cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case3"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=200, master_seed=2024)
    topology = TopologyCache(model, config.increment_h)
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
    with pytest.raises(ValueError):
        SequentialSimulation(ieee33, ProfileSet(1.0, 48.0),
                             SimulationConfig(horizon_h=48.0), np.random.default_rng(0),
                             topology=TopologyCache(validation6, 1.0))
