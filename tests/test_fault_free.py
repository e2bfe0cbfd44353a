"""Fault-free increments against judging the normal state they skip.

An increment with no line fault or transformer repair active, once its
failures and phase ends are applied, is fault-free: `SequentialSimulation`
looks up no switching state and hands `_accrue` no sub-systems, so no
verdict names a load point and the walk visits none. `_Walking` tells such
an increment by the fault table and hands `_accrue` the normal state's
sub-systems instead, for `_shed_verdict` to judge. On real runs the full
ledgers and the random streams left behind must be equal, and the fast
path must have been taken.
`_WalkSpy` notes the load points each accruing call walks: none at a
fault-free increment, and at any other only those that a verdict leaving
them dark or shed, or a down transformer, names. A verdict names no load
point it serves: each it names is dark or shed by a non-zero MW.
"""

import builtins
import dataclasses

import numpy as np
import pytest

from gridrel import engine
from gridrel.engine import SequentialSimulation, SimulationConfig, TopologyCache
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario
from gridrel.timeseries import ProfileSet


class _Counting(SequentialSimulation):
    """The engine as it is, counting its fault-free accruing calls."""

    fault_free = 0

    def _accrue(self, t, subsystems):
        self.fault_free += not subsystems
        return super()._accrue(t, subsystems)


class _Walking(_Counting):
    """Fault-free increments, told by the fault table, accrued from judging
    the normal state, whose lookup the engine skips; any other increment
    as the engine accrues it."""

    def _accrue(self, t, subsystems):
        if self._electrical_fault_active():
            return super()._accrue(t, subsystems)
        assert subsystems == ()
        self.fault_free += 1
        return super()._accrue(t, self.topology.state((), ()))


def _run(cls, topology, config):
    sims = [cls(topology, np.random.default_rng([config.master_seed, i]))
            for i in range(config.iterations)]
    ledgers = [sim.run() for sim in sims]
    return ledgers, [sim.rng.bit_generator.state for sim in sims], sum(
        sim.fault_free for sim in sims)


@pytest.mark.parametrize("case, increment_h", [
    ("case1", 1.0), ("case3", 1.0), ("case4", 1.0), ("case3", 1.0 / 12.0),
])
def test_fault_free_increments_write_what_the_walk_writes(case, increment_h, ieee33_spec,
                                                          bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    config = SimulationConfig(increment_h=increment_h, iterations=40, master_seed=31)
    topology = TopologyCache(model, ProfileSet(increment_h, 8760.0, loads, wind), config,
                             cost_table)
    fast, fast_streams, taken = _run(_Counting, topology, config)
    walked, walked_streams, walks = _run(_Walking, topology, config)
    assert fast == walked
    assert fast_streams == walked_streams
    assert taken == walks > 0


_SORTED = []  # what the engine module sorted, within the accruing call under way


def _recording_sorted(*args, **kwargs):
    result = builtins.sorted(*args, **kwargs)
    _SORTED.append(result)
    return result


class _WalkSpy(SequentialSimulation):
    """The engine, noting at each accruing call whether it is fault-free, the
    load points its walk visits, which the walk's one `sorted` call lists,
    and the buses that dark verdicts, shedding verdicts and down
    transformers name, and noting every verdict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls, self.verdicts = [], []

    def _accrue(self, t, subsystems):
        fault_free = not self._electrical_fault_active()
        self.named = {b for kind, b in self.repairs if kind == "transformer"}
        _SORTED.clear()
        stop = super()._accrue(t, subsystems)
        (walked,) = _SORTED
        self.calls.append((fault_free, walked, self.named))
        return stop

    def _shed_verdict(self, sub, *args):
        verdict, until = super()._shed_verdict(sub, *args)
        self.named.update(sub.buses if verdict is None else verdict)
        self.verdicts.append(verdict)
        return verdict, until


# the bundled presets, and the two with sources on a feeder limited to 2.0 MW,
# below the 2.888 MW that the demand bounds sum to, so that grid-fed
# sub-systems shed too
@pytest.mark.parametrize("case, feeder_mw", [
    *((case, None) for case in ("case1", "case2", "case3", "case4")),
    ("case2", 2.0), ("case4", 2.0),
], ids=["case1", "case2", "case3", "case4", "case2-feeder2MW", "case4-feeder2MW"])
def test_the_walk_visits_only_the_load_points_a_verdict_names(case, feeder_mw, monkeypatch,
                                                              ieee33_spec, bundled_profiles,
                                                              cost_table):
    monkeypatch.setattr(engine, "sorted", _recording_sorted, raising=False)
    loads, wind = bundled_profiles
    spec = apply_scenario(ieee33_spec, case)
    if feeder_mw is not None:
        spec = dataclasses.replace(spec, distribution_systems=tuple(
            dataclasses.replace(d, feeder_capacity_mw=feeder_mw)
            for d in spec.distribution_systems))
    model = build_network(spec)
    config = SimulationConfig(iterations=40, master_seed=2024)
    topology = TopologyCache(model, ProfileSet(1.0, 8760.0, loads, wind), config, cost_table)
    calls, verdicts = [], []
    for i in range(config.iterations):
        sim = _WalkSpy(topology, np.random.default_rng([config.master_seed, i]))
        sim.run()
        calls += sim.calls
        verdicts += sim.verdicts
    # each load point a verdict names is dark (the verdict None) or shed by a
    # non-zero MW; the presets with sources shed in part somewhere
    assert all(verdict is None or 0.0 not in verdict.values() for verdict in verdicts)
    assert any(verdicts) == (case in ("case2", "case4"))
    fault_free = [walked for free, walked, _ in calls if free]
    evaluated = [(walked, named) for free, walked, named in calls if not free]
    assert fault_free and not any(fault_free)
    assert evaluated
    for walked, named in evaluated:
        assert walked == [b for b in model.load_points if b in named]
    # a verdict that serves its sub-system in full names none of its buses
    walked_per_call = sum(len(walked) for walked, _ in evaluated) / len(evaluated)
    assert 0 < walked_per_call < len(model.load_points)
