"""Fault-free increments against the load-point walk they replace.

An increment with no line fault or transformer repair active, once its
failures and phase ends are applied, is fault-free: `SequentialSimulation`
hands `_accrue` no sub-systems and it only resets the outage flags.
`_Walking` tells such an increment by the fault table and handles it as
the engine used to, walking every load point with nothing shed, as
`oracles` keeps the former load-flow path.
On real runs the full ledgers and the random streams left behind must be
equal, and the fast path must have been taken.
"""

import numpy as np
import pytest

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
    """Fault-free increments, told by the fault table, accrued by the former
    walk over every load point; any other increment evaluates its switching
    state, looked up here if the engine handed none."""

    def _accrue(self, t, subsystems):
        if self._electrical_fault_active():
            return super()._accrue(t, subsystems or self.topology.state(self.faults,
                                                                        self.isolated))
        assert subsystems == ()
        self.fault_free += 1
        stop = min([self.config.n_increments, *self.schedule, *self.ends, *self.silent_ends])
        self.was_islanded = {b: False for b in self.was_islanded}
        # with nothing shed a load point is served in full: no sum moves, no
        # interruption starts, and it is no longer out
        for b in self.model.load_points:
            self.was_out[b] = False
        return stop


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
