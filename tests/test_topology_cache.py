"""The per-run topology cache against topology computed from scratch.

The engine compiles each switching state (failed lines, open disconnectors)
once into a `TopologyCache` entry, the open disconnectors following from the
isolated lines, in one pass over the feeder forest. These tests check the
entries the engine uses on real IEEE-33 runs, with the isolated lines
replayed from the ledger's events, and entries of generated states of
IEEE-33, the 6-bus feeder and the two-feeder network, against oracles that
rescan the model; check every field of every sub-system, in order, against
the former compiler `reference_state` on each state met in real runs and on
generated ones; and check that a cache lives no longer than its run, that a
sub-system met in several states is compiled once, and that its constructor
refuses inputs that disagree.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel import shedding
from gridrel.engine import (
    SequentialSimulation, SimulationConfig, TopologyCache, run_iteration,
    run_monte_carlo,
)
from gridrel.loadflow import LoadFlowProblem
from gridrel.indices import MissingCostCategory
from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import build_network, connected_components
from gridrel.scenarios import apply_scenario, bundled_validation_path
from gridrel.timeseries import PRODUCTION, ProfileSet, TimeSeries

from conftest import CHAIN4
from oracles import (
    reference_breakers, reference_grid_flows_ok, reference_lines_inside, reference_state,
)

SUBSYSTEM_FIELDS = ("buses", "grid_bus", "grid_limit", "lines", "subtree_sums",
                    "feed_limits", "steady")


def _switches_cutting_out(model, isolated):
    """Switch id -> closed, with the sections of `isolated` cut out; the
    breakers keep their normal state, which the oracle does not read."""
    closed = {s: s not in model.normally_open for s in model.switchgear}
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


def _assert_fields_match_former_compiler(topology, key, entry):
    """Every field of every sub-system of the state `key`, in order, is the
    one `reference_state` compiles; the sums' order fixes their bits."""
    reference = reference_state(topology, *key)
    assert [sub.buses for sub in entry] == [ref["buses"] for ref in reference]
    for sub, ref in zip(entry, reference):
        for name in SUBSYSTEM_FIELDS:
            assert getattr(sub, name) == ref[name], (key, sub.buses, name)


class _CheckedSimulation(SequentialSimulation):
    """Checks the sub-systems of every electrically active increment.

    The hook sits where both the stepped and the jumped accrual receive the
    sub-systems; a jumped run keeps them until its last increment, and each
    of its increments is checked with its own demand. The isolated lines are
    replayed from the ledger: a line is isolated from its `isolated` event
    until its `line_repaired` event. `active` counts the electrically active
    accruing calls and `keys` collects their (failed lines, open switches).
    """

    checked = 0
    active = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.keys = set()

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
        switches = _switches_cutting_out(self.model, isolated)
        self.active += 1
        self.keys.add((frozenset(failed),
                       frozenset(s for s, closed in switches.items() if not closed)))
        for tau in range(t, stop):
            live = self.topology.live_demand(self.topology.loads, tau, down)
            _assert_matches_reference(self.model, subsystems, switches, failed, live)
            self.checked += 1
        return stop


@pytest.mark.parametrize("case", ["case1", "case2", "case3", "case4"])
def test_cached_states_match_reference_on_ieee33_runs(case, ieee33_spec,
                                                      bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=20, master_seed=7)
    topology = TopologyCache(model, profiles, config, cost_table)
    checked, active, keys = 0, 0, set()
    for i in range(config.iterations):
        sim = _CheckedSimulation(topology, np.random.default_rng([config.master_seed, i]))
        ledger = sim.run()
        checked, active, keys = checked + sim.checked, active + sim.active, keys | sim.keys
        # a cache shared across iterations gives what a fresh one gives
        assert ledger == run_iteration(TopologyCache(model, profiles, config, cost_table), i)
    assert checked > 100
    # only an electrically active increment looks its state up, and each
    # distinct state is compiled once per run
    assert topology.hits + topology.misses == active
    assert topology.misses == len(keys) > 0


@pytest.mark.parametrize("case, increment_h", [
    *((case, increment_h) for increment_h in (1.0, 0.25)
      for case in ("case1", "case2", "case3", "case4")),
    ("validation6", 1.0),
])
def test_every_state_met_in_real_runs_compiles_as_the_former_compiler(
        case, increment_h, ieee33_spec, validation6, bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    if case == "validation6":  # as `gridrel validate` runs it
        model, profiles = validation6, ProfileSet(increment_h, 8760.0)
        cost_table = None
    else:
        model = build_network(apply_scenario(ieee33_spec, case))
        profiles = ProfileSet(increment_h, 8760.0, loads, wind)
    config = SimulationConfig(increment_h=increment_h, iterations=50, master_seed=1515)
    topology = TopologyCache(model, profiles, config, cost_table)
    for i in range(config.iterations):
        run_iteration(topology, i)
    assert len(topology._states) > 10
    for key, entry in topology._states.items():
        _assert_fields_match_former_compiler(topology, key, entry)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_state_matches_reference_on_generated_states(ieee33, validation6, tie,
                                                              data):
    model = data.draw(st.sampled_from([ieee33, validation6, tie]))
    failed = data.draw(st.frozensets(st.sampled_from(model.line_ids)))
    isolated = (data.draw(st.frozensets(st.sampled_from(sorted(failed))))
                if failed else frozenset())
    # half-MW steps add up exactly in any order, so no verdict rests on rounding
    steps = data.draw(st.lists(st.integers(0, 8), min_size=len(model.bus_ids),
                               max_size=len(model.bus_ids)))
    demand = {b: 0.5 * k for b, k in zip(model.bus_ids, steps)}

    profiles = ProfileSet(1.0, 48.0)
    config = SimulationConfig(horizon_h=48.0)
    cache = TopologyCache(model, profiles, config)
    entry = cache.state(failed, isolated)
    _assert_matches_reference(model, entry, _switches_cutting_out(model, isolated),
                              failed, demand)
    (key,) = cache._states
    _assert_fields_match_former_compiler(cache, key, entry)
    # the key is the set of failed lines and the set of open disconnectors
    assert cache.state(dict.fromkeys(failed), sorted(isolated, reverse=True)) is entry
    assert (cache.hits, cache.misses) == (1, 1)
    assert TopologyCache(model, profiles, config).state(failed, isolated) == entry


def _subsets(items):
    return [frozenset(c) for k in range(len(items) + 1)
            for c in itertools.combinations(items, k)]


@pytest.mark.parametrize("name", ["tie", "validation6"])
def test_every_key_of_a_small_network_compiles_as_the_former_compiler(name, request):
    """Every set of failed lines with every set of open disconnectors that
    holds the normally open ones, whether isolation can open them or not:
    faults with their own switch open, faults below another open switch,
    and on the two-feeder network a failed tie."""
    model = request.getfixturevalue(name)
    cache = TopologyCache(model, ProfileSet(1.0, 48.0), SimulationConfig(horizon_h=48.0))
    disconnectors = [s.id for s in model.switchgear.values() if s.kind == "disconnector"]
    for failed in _subsets(model.line_ids):
        for opened in _subsets(disconnectors):
            key = (failed, opened | model.normally_open)
            _assert_fields_match_former_compiler(cache, key, cache._compile(*key))


def test_breakers_of_the_two_feeder_network(tie):
    cache = TopologyCache(tie, ProfileSet(1.0, 48.0), SimulationConfig(horizon_h=48.0))

    def grid_buses(failed, open_switches):
        return [(sub.buses, sub.grid_bus)
                for sub in cache._compile(frozenset(failed), frozenset(open_switches))]

    # a failed tie is cut off by its normally open switch: no breaker trips
    assert grid_buses({"LT"}, {"DT"}) == grid_buses((), {"DT"}) == [
        (("A1", "A2"), "A1"), (("C1", "C2"), "C1")]
    # a fault trips its own feeder's breaker, and only that one
    assert grid_buses({"LA", "LT"}, {"DT"}) == [
        (("A1",), None), (("A2",), None), (("C1", "C2"), "C1")]
    # with its own switch open the fault is cut off, and the breaker closes
    assert grid_buses({"LA", "LT"}, {"DA", "DT"}) == [
        (("A1",), "A1"), (("A2",), None), (("C1", "C2"), "C1")]
    assert grid_buses((), {"DA", "DC", "DT"}) == [
        (("A1",), "A1"), (("A2",), None), (("C1",), "C1"), (("C2",), None)]


def test_case3_hits_the_cache_at_least_nine_times_in_ten(ieee33_spec, bundled_profiles,
                                                        cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case3"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=200, master_seed=2024)
    topology = TopologyCache(model, profiles, config, cost_table)
    for i in range(config.iterations):
        run_iteration(topology, i)
    assert topology.misses > 0
    assert topology.hits >= 0.9 * (topology.hits + topology.misses)


def test_a_subsystem_met_in_several_states_is_compiled_once(ieee33_spec, bundled_profiles,
                                                           cost_table, monkeypatch):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case2"))
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=40, master_seed=2024)
    layouts, skeletons = [], []
    from_tree, compile_skeleton = LoadFlowProblem.from_tree, shedding.compile_skeleton

    def counted_layout(slack, edges, *args):
        layouts.append((slack, tuple(edge[0] for edge in edges)))
        return from_tree(slack, edges, *args)

    def counted_skeleton(node_ids, shed_cost, lines=()):
        skeletons.append((tuple(node_ids), tuple(line[0] for line in lines)))
        return compile_skeleton(node_ids, shed_cost, lines)

    monkeypatch.setattr(LoadFlowProblem, "from_tree", counted_layout)
    monkeypatch.setattr(shedding, "compile_skeleton", counted_skeleton)
    topology = TopologyCache(model, profiles, config, cost_table)
    for i in range(config.iterations):
        run_iteration(topology, i)
    monkeypatch.undo()

    # one object per (buses, line ids, grid bus), whichever states hold it
    held_by = {}
    for (failed, open_switches), entry in topology._states.items():
        for sub in entry:
            key = (sub.buses, tuple(line.id for line in sub.lines), sub.grid_bus)
            held_by.setdefault(key, []).append(sub)
        # the partition is still the one `connected_components` gives
        closed = {s: s not in open_switches for s in model.switchgear}
        closed.update(reference_breakers(model, closed, failed))
        assert [sub.buses for sub in entry] == connected_components(model, closed, failed)
    assert all(sub is subs[0] for subs in held_by.values() for sub in subs)
    assert any(len(subs) > 1 for subs in held_by.values())
    # so each layout and each shedding skeleton is compiled once
    assert layouts and len(layouts) == len(set(layouts))
    assert skeletons and len(skeletons) == len(set(skeletons))
    assert len(topology._subsystems) == len(held_by)


def test_no_cache_outlives_run_monte_carlo():
    model = build_network(parse_network_file(bundled_validation_path()))
    ledgers = run_monte_carlo(model, ProfileSet(1.0, 8760.0),
                              SimulationConfig(iterations=4, master_seed=5))
    assert any(ledger.events for ledger in ledgers)
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None


def test_each_load_point_and_unit_is_bound_to_its_curve_once():
    model = build_network(parse_network_text(
        CHAIN4.replace("B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general",
                       "B4 customers=10 load_mw=0.1 load_mvar=0.02 profile=res\nB5")
        + "[lines]\nL4 from=B4 to=B5 r_pu=0.01 x_pu=0.01 capacity_mw=10\n"
        + "[production]\nW bus=B3 max_mw=1.0 profile=wind\nV bus=B4 max_mw=0.4\n"
        + "U bus=B2 max_mw=2 profile=nope\n"))
    wind = (-1.0, 0.5, 9.0, 1.0)
    profiles = ProfileSet(1.0, 8.0, {"res": TimeSeries("res", 1.0, (0.5, 1.5))},
                          {"wind": TimeSeries("wind", 1.0, wind, PRODUCTION)})
    cache = TopologyCache(model, profiles, SimulationConfig(horizon_h=8.0))
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


def test_a_cost_table_is_checked_and_each_bus_priced_once():
    model = build_network(parse_network_text(CHAIN4.replace(
        "B4 customers=10 load_mw=0.1 load_mvar=0.02 category=general",
        "B4 customers=10 load_mw=0.1 load_mvar=0.02 category=industrial")))
    profiles, config = ProfileSet(1.0, 8.0), SimulationConfig(horizon_h=8.0)
    # B1 has no load, so no category, and sheds at no cost; without a table
    # every load sheds at unit cost
    assert TopologyCache(model, profiles, config).shed_cost == {
        "B1": 0.0, "B2": 1.0, "B3": 1.0, "B4": 1.0}
    priced = TopologyCache(model, profiles, config,
                           {"general": 5.0, "industrial": 50.0, "unused": 2.0})
    assert priced.shed_cost == {"B1": 0.0, "B2": 5.0, "B3": 5.0, "B4": 50.0}
    # the first category missing in load-point order is named
    for table, missing in [({}, "general"), ({"general": 5.0}, "industrial")]:
        with pytest.raises(MissingCostCategory) as info:
            TopologyCache(model, profiles, config, table)
        assert info.value.args == (f"no interruption cost for category {missing!r}",)


def test_profile_set_of_another_increment_is_rejected(validation6):
    with pytest.raises(ValueError, match="0.5 h increment, the run 1 h"):
        TopologyCache(validation6, ProfileSet(0.5, 48.0), SimulationConfig(horizon_h=48.0))
