"""Compiled load-flow layouts and the list sweep against the per-call path.

The engine compiles each sub-system's load-flow layout once per slack bus
and sweeps on Python complex lists. The oracles are the former path: a
layout built by `LoadFlowProblem.from_tree` for every sweep, and the sweep
on numpy arrays. Every problem the engine hands `solve_fbs` must equal the
per-call problem exactly. Every solution must match the numpy sweep's:
equal iterations and convergence, and values within 1e-12 relative, since
Python and numpy divide complex numbers and take their magnitudes with
roundings an ulp apart and numpy sums the losses pairwise.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridrel import engine
from gridrel.engine import (
    ScriptedFault, SequentialSimulation, SimulationConfig, TopologyCache,
)
from gridrel.loadflow import LoadFlowProblem, solve_fbs
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario
from gridrel.timeseries import ProfileSet

from oracles import numpy_fbs, per_call_fbs_problem

_REL = 1e-12


class _Replay(SequentialSimulation):
    """The engine, noting the per-call problem of every sweep it starts."""

    expected = None  # list shared by the iterations of one replay

    def _run_fbs(self, sub, t, live_demand, gen_bus, result, slack):
        demand_q = {b: peak_mvar * float(curve[t])
                    for b, (_, peak_mvar, curve) in self.topology.loads.items()}
        self.expected.append(per_call_fbs_problem(
            sub.buses, live_demand, demand_q, sub.lines, gen_bus, result, slack,
            self.model.base_mva))
        return super()._run_fbs(sub, t, live_demand, gen_bus, result, slack)


def _replay(monkeypatch, model, profiles, config, cost_table, script=None):
    """Run every iteration, seeded as `run_iteration` seeds them, and return
    the per-call problems, the (problem, solution) pairs `solve_fbs` saw and
    the run's topology cache."""
    seen = []

    def recording_solve_fbs(problem, *args, **kwargs):
        solution = solve_fbs(problem, *args, **kwargs)
        seen.append((problem, solution))
        return solution

    monkeypatch.setattr(engine, "solve_fbs", recording_solve_fbs)
    topology = TopologyCache(model, profiles, config, cost_table)
    expected = []
    for i in range(config.iterations):
        sim = _Replay(topology, np.random.default_rng([config.master_seed, i]), script=script)
        sim.expected = expected
        sim.run()
    return expected, seen, topology


def _values(solution):
    return [*solution.voltage_pu.values(), *solution.line_flow_mw.values(),
            solution.losses_mw, solution.slack_mw]


def _assert_matches_numpy_sweep(problem, solution, tolerance=1e-8, max_iter=50,
                                values=True):
    oracle = numpy_fbs(problem, tolerance, max_iter)
    assert (solution.iterations, solution.converged) == (oracle.iterations, oracle.converged)
    assert list(solution.voltage_pu) == list(oracle.voltage_pu)
    assert list(solution.line_flow_mw) == list(oracle.line_flow_mw)
    if not values:
        return
    # flows cancel at buses whose generation meets their load, so a value is
    # compared on the scale of the largest of its solution
    scale = max([1.0, *(abs(x) for x in _values(oracle) if math.isfinite(x))])
    for ours, theirs in zip(_values(solution), _values(oracle)):
        if math.isfinite(ours) or math.isfinite(theirs):
            assert abs(ours - theirs) <= _REL * max(abs(ours), abs(theirs), scale)
        else:
            assert math.isnan(ours) == math.isnan(theirs)


def _assert_replay_matches(expected, seen):
    assert len(expected) == len(seen)
    for per_call, (problem, solution) in zip(expected, seen):
        assert problem == per_call
        _assert_matches_numpy_sweep(problem, solution)


# -- the FBS stream of real runs -------------------------------------------


@pytest.mark.parametrize("increment_h", [1.0, 0.25])
@pytest.mark.parametrize("case", ["case2", "case4"])
def test_engine_sweeps_equal_the_per_call_path(case, increment_h, monkeypatch, ieee33_spec,
                                               bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(increment_h, 8760.0, loads, wind)
    config = SimulationConfig(increment_h=increment_h, iterations=40, master_seed=11)
    expected, seen, topology = _replay(monkeypatch, model, profiles, config, cost_table)
    assert len(seen) > 20
    _assert_replay_matches(expected, seen)
    # one layout per (sub-system, slack) met, each used by many sweeps
    layouts = sum(len(sub.layouts) for subs in topology._states.values() for sub in subs)
    assert 0 < layouts < len(seen)


def test_island_slack_moving_with_the_wind_uses_two_layouts(monkeypatch, ieee33_spec,
                                                            bundled_profiles, cost_table):
    # While L05 is sectioned (15 h to 16 h) the feeder breaker is open, and
    # B06..B18 and B26..B33 form one island with the wind unit at B15 and the
    # battery at B30. The wind rises from 0 to 0.66 MW at 15:15, past the
    # battery's 0.5 MW inverter limit, and the slack moves from B30 to B15.
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case2"))
    profiles = ProfileSet(0.25, 48.0, loads, wind)
    config = SimulationConfig(increment_h=0.25, horizon_h=48.0, master_seed=11)
    expected, seen, topology = _replay(monkeypatch, model, profiles, config, cost_table,
                                       script=[ScriptedFault(15.0, "L05")])
    _assert_replay_matches(expected, seen)
    (island,) = [sub for sub in topology.state({"L05"}, ()) if "B15" in sub.buses]
    assert island.grid_bus is None and "B30" in island.buses
    assert set(island.layouts) == {"B15", "B30"}
    slacks = [problem.bus_ids[0] for problem, _ in seen
              if sorted(problem.bus_ids) == list(island.buses)]
    assert slacks == ["B30", "B15", "B15", "B15"]


# -- random radial trees ---------------------------------------------------

_NON_FINITE = (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf),
               complex(1.7e308, 1.7e308))
_FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def _radial_problems(draw):
    """A random tree, slack anywhere, mostly light injections; with one bus
    heavy enough not to converge, or non-finite, in some examples."""
    n = draw(st.integers(1, 12))
    edges = [(f"L{i}", f"B{draw(st.integers(0, i - 1)):02d}", f"B{i:02d}",
              complex(draw(st.floats(1e-3, 0.1)), draw(st.floats(0.0, 0.1))))
             for i in range(1, n)]
    injections = {f"B{i:02d}": draw(st.complex_numbers(max_magnitude=0.1, **_FINITE))
                  for i in range(n)}
    stress = draw(st.sampled_from(["none", "heavy", "non-finite"]))
    if stress != "none":
        bus = f"B{draw(st.integers(0, n - 1)):02d}"
        injections[bus] = draw(
            st.complex_numbers(min_magnitude=5.0, max_magnitude=1e3, **_FINITE)
            if stress == "heavy" else st.sampled_from(_NON_FINITE))
    slack = f"B{draw(st.integers(0, n - 1)):02d}"
    return LoadFlowProblem.from_tree(slack, edges, injections,
                                     base_mva=draw(st.sampled_from([1.0, 10.0, 100.0])))


# a NaN load on one branch: the other branch converges, the sweep must not
_NAN_BRANCH = LoadFlowProblem.from_tree(
    "S", [("L1", "S", "A", 0.01 + 0.01j), ("L2", "S", "B", 0.01 + 0.01j)],
    {"A": 0.05 + 0.01j, "B": complex(math.nan, 0.0)})


@settings(max_examples=300, deadline=None)
@given(problem=_radial_problems(), tolerance=st.sampled_from([1e-8, 1e-12]),
       max_iter=st.sampled_from([0, 1, 3, 50]))
@example(problem=_NAN_BRANCH, tolerance=1e-8, max_iter=50)
def test_list_sweep_matches_the_numpy_sweep(problem, tolerance, max_iter):
    solution = solve_fbs(problem, tolerance, max_iter)
    # a sweep that does not converge is an arbitrary iterate, which the
    # engine discards; rounding an ulp apart may grow through it
    _assert_matches_numpy_sweep(problem, solution, tolerance, max_iter,
                                values=solution.converged)


def test_nan_anywhere_never_converges():
    solution = solve_fbs(_NAN_BRANCH)
    assert not solution.converged and solution.iterations == 50
    assert math.isnan(solution.voltage_pu["B"])
    assert math.isfinite(solution.voltage_pu["A"])


def test_voltages_beyond_the_float_range_read_inf():
    huge = LoadFlowProblem.from_tree("S", [("L1", "S", "A", 1.0 + 1.0j)],
                                     {"A": complex(1.7e308, 1.7e308)})
    solution = solve_fbs(huge, max_iter=3)
    assert not solution.converged
    assert math.isinf(solution.voltage_pu["A"]) or math.isnan(solution.voltage_pu["A"])
