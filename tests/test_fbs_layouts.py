"""Compiled load-flow layouts, the list sweep against the per-call path,
and the certificate that lets the engine skip a sweep.

The engine compiles each sub-system's load-flow layout once per slack bus
and sweeps on Python complex lists. The oracles are the former path: a
layout built by `LoadFlowProblem.from_tree` for every sweep, and the sweep
on numpy arrays. Every problem the engine builds, certified or swept, must
equal the per-call problem exactly. Every solution must match the numpy
sweep's: equal iterations and convergence, and values within 1e-12
relative, since Python and numpy divide complex numbers and take their
magnitudes with roundings an ulp apart and numpy sums the losses pairwise.
Every problem `certified_voltage` passes is swept anyway and must meet the
certificate's bounds: convergence within its iteration bound, |V| >= r |V0|,
every line within 1.01 x capacity and a balance residual under 1e-4 MW.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from gridrel import engine
from gridrel.engine import (
    ScriptedFault, SequentialSimulation, SimulationConfig, TopologyCache, run_iteration,
)
from gridrel.loadflow import (
    LoadFlowProblem, certified_voltage, compile_certificate, solve_fbs,
)
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario
from gridrel.timeseries import ProfileSet

from oracles import numpy_fbs, per_call_fbs_problem

_REL = 1e-12
_TOL = 1e-8  # the engine's sweep tolerance and iteration cap
_MAX_ITER = 50


class _Replay(SequentialSimulation):
    """The engine, noting every load-flow problem it builds or certifies, with
    the per-call problem and the compiled certificate of its layout."""

    built = None  # list shared by the iterations of one replay
    confirming = None  # (sim, sub, live demand, generators, result, t) of the last call

    def _confirm_with_loadflow(self, *args):
        _Replay.confirming = (self, *args)
        return super()._confirm_with_loadflow(*args)


def _recording_certified_voltage(s_pu, certificate, *args, **kwargs):
    """`certified_voltage`, noting the problem the engine would sweep: its
    layout's, with these injections, beside the per-call problem."""
    sim, sub, live_demand, generators, result, t = _Replay.confirming
    (layout,) = [layout for layout, _, compiled in sub.layouts.values()
                 if compiled is certificate]
    demand_q = {b: peak_mvar * float(curve[t])
                for b, (_, peak_mvar, curve) in sim.topology.loads.items()}
    per_call = per_call_fbs_problem(
        sub.buses, live_demand, demand_q, sub.lines, {g[0]: g[1] for g in generators},
        result, layout.bus_ids[0], sim.model.base_mva)
    sim.built.append((per_call, replace(layout, s_pu=s_pu), certificate,
                      {line.id: line.capacity_mw for line in sub.lines}))
    return certified_voltage(s_pu, certificate, *args, **kwargs)


def _replay(monkeypatch, model, profiles, config, cost_table, script=None):
    """Run every iteration, seeded as `run_iteration` seeds them, and return
    the (per-call problem, problem, certificate, capacities) of every
    problem built or certified, the (problem, solution) pairs `solve_fbs`
    saw, the ledgers and the run's topology cache."""
    seen = []

    def recording_solve_fbs(problem, *args, **kwargs):
        solution = solve_fbs(problem, *args, **kwargs)
        seen.append((problem, solution))
        return solution

    monkeypatch.setattr(engine, "solve_fbs", recording_solve_fbs)
    monkeypatch.setattr(engine, "certified_voltage", _recording_certified_voltage)
    topology = TopologyCache(model, profiles, config, cost_table)
    built, ledgers = [], []
    for i in range(config.iterations):
        sim = _Replay(topology, np.random.default_rng([config.master_seed, i]), script=script)
        sim.built = built
        ledgers.append(sim.run())
    return built, seen, ledgers, topology


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


def _iteration_bound(r, v0):
    """The first k at which the certificate bounds the update, L^(k-1) zeta
    |V0| with zeta = r (1 - r) and L = zeta / r^2, below the tolerance."""
    zeta, contraction = r * (1.0 - r), (1.0 - r) / r
    k = 1
    while zeta * v0 * contraction ** (k - 1) >= _TOL:
        k += 1
    return k


def _assert_within_certificate(problem, r, capacity_mw):
    """Sweep a certified problem and check the four bounds it certifies."""
    solution = solve_fbs(problem, _TOL, _MAX_ITER)
    v0 = abs(problem.slack_voltage)
    assert solution.converged
    assert solution.iterations <= _iteration_bound(r, v0) <= _MAX_ITER
    assert min(solution.voltage_pu.values()) >= r * v0 * (1.0 - 1e-12)
    for line, flow in solution.line_flow_mw.items():
        assert abs(flow) <= 1.01 * capacity_mw[line]
    # the engine's balance check, in the problem's terms: slack output less
    # the losses against the served net consumption
    residual = (solution.slack_mw - solution.losses_mw
                - problem.base_mva * sum(x.real for x in problem.s_pu))
    assert abs(residual) < 1e-4
    return solution


def _assert_replay_matches(built, seen):
    """Every problem equals the per-call one; the engine swept exactly the
    problems the certificate did not pass, each as the numpy sweep does, and
    every certified one meets the certificate's bounds when swept anyway.
    Returns the number of certified problems."""
    swept = []
    for per_call, problem, certificate, capacity_mw in built:
        assert problem == per_call
        assert certificate == compile_certificate(per_call, capacity_mw)
        r = certified_voltage(problem.s_pu, certificate)
        if r is None:
            swept.append(problem)
        else:
            _assert_matches_numpy_sweep(problem, _assert_within_certificate(
                problem, r, capacity_mw))
    assert swept == [problem for problem, _ in seen]
    for problem, solution in seen:
        _assert_matches_numpy_sweep(problem, solution)
    return len(built) - len(swept)


# -- the load-flow stream of real runs ------------------------------------


@pytest.mark.parametrize("increment_h", [1.0, 0.25])
@pytest.mark.parametrize("case", ["case2", "case4"])
def test_engine_sweeps_equal_the_per_call_path(case, increment_h, monkeypatch, ieee33_spec,
                                               bundled_profiles, cost_table):
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, case))
    profiles = ProfileSet(increment_h, 8760.0, loads, wind)
    config = SimulationConfig(increment_h=increment_h, iterations=40, master_seed=11)
    built, seen, ledgers, topology = _replay(monkeypatch, model, profiles, config,
                                             cost_table)
    assert len(built) > 20
    certified = _assert_replay_matches(built, seen)
    # a skipped sweep is counted, beside the sweeps run
    assert sum(ledger.sweeps_certified for ledger in ledgers) == certified
    assert sum(ledger.sweeps_run for ledger in ledgers) == len(seen)
    # one layout per (sub-system, slack) met, each used by many problems
    layouts = sum(len(sub.layouts) for subs in topology._states.values() for sub in subs)
    assert 0 < layouts < len(built)


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
    built, seen, _, topology = _replay(monkeypatch, model, profiles, config, cost_table,
                                       script=[ScriptedFault(15.0, "L05")])
    _assert_replay_matches(built, seen)
    (island,) = [sub for sub in topology.state({"L05"}, ()) if "B15" in sub.buses]
    assert island.grid_bus is None and "B30" in island.buses
    assert set(island.layouts) == {"B15", "B30"}
    slacks = [problem.bus_ids[0] for _, problem, _, _ in built
              if sorted(problem.bus_ids) == list(island.buses)]
    assert slacks == ["B30", "B15", "B15", "B15"]


def test_a_certified_confirmation_builds_no_load_flow_problem(monkeypatch, ieee33_spec,
                                                             bundled_profiles, cost_table):
    # 40 case2 iterations at 1 h, seed 2024: each of the 138 confirmations is
    # certified, so past its layouts the engine builds no problem and sweeps
    # nothing, and each ledger certifies what it did when every confirmation
    # built its problem
    constructed = []
    init = LoadFlowProblem.__init__

    def counted_init(self, *args, **kwargs):
        constructed.append(args or kwargs)
        init(self, *args, **kwargs)

    def no_sweep(problem, *args, **kwargs):
        raise AssertionError("swept a certified problem")

    monkeypatch.setattr(LoadFlowProblem, "__init__", counted_init)
    monkeypatch.setattr(engine, "solve_fbs", no_sweep)
    loads, wind = bundled_profiles
    model = build_network(apply_scenario(ieee33_spec, "case2"))
    config = SimulationConfig(iterations=40, master_seed=2024)
    topology = TopologyCache(model, ProfileSet(1.0, 8760.0, loads, wind), config, cost_table)
    ledgers = [run_iteration(topology, i) for i in range(config.iterations)]
    layouts = sum(len(sub.layouts) for sub in topology._subsystems.values())
    assert len(constructed) == layouts > 0
    assert [ledger.sweeps_certified for ledger in ledgers] == [
        1, 1, 6, 2, 4, 1, 6, 1, 2, 1, 1, 9, 4, 4, 6, 4, 1, 8, 0, 3,
        5, 3, 3, 6, 2, 4, 1, 13, 1, 4, 1, 0, 0, 4, 1, 6, 8, 1, 2, 8]
    assert not any(ledger.sweeps_run for ledger in ledgers)


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


# -- the certificate on random radial trees --------------------------------


@st.composite
def _certificate_cases(draw):
    """A random tree with line capacities in MW, impedances from short to
    long lines, and injections of either sign (load, charging, export) from
    light to heavy, so that the certificate passes in some examples and
    fails in others."""
    n = draw(st.integers(2, 12))
    edges, capacity_mw = [], {}
    for i in range(1, n):
        edges.append((f"L{i}", f"B{draw(st.integers(0, i - 1)):02d}", f"B{i:02d}",
                      complex(draw(st.floats(1e-3, 0.3)), draw(st.floats(0.0, 0.3)))))
        capacity_mw[f"L{i}"] = draw(st.floats(0.05, 50.0))
    scale = 10.0 ** draw(st.floats(-3.0, 0.0))
    injections = {f"B{i:02d}": scale * complex(draw(st.floats(-1.0, 1.0)),
                                               draw(st.floats(-1.0, 1.0)))
                  for i in range(n)}
    problem = LoadFlowProblem.from_tree(
        f"B{draw(st.integers(0, n - 1)):02d}", edges, injections,
        base_mva=draw(st.sampled_from([1.0, 10.0, 100.0])),
        slack_voltage=draw(st.sampled_from([1.0, 0.95, 1.05])))
    return problem, capacity_mw


def test_certified_sweeps_meet_their_bounds_on_random_trees():
    certified = []

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=_certificate_cases())
    def check(case):
        problem, capacity_mw = case
        r = certified_voltage(problem.s_pu, compile_certificate(problem, capacity_mw))
        certified.append(r is not None)
        if r is not None:
            target(1.0 - r)  # toward the edge of the certificate, zeta near 1/4
            _assert_within_certificate(problem, r, capacity_mw)

    check()
    # neither vacuous nor trivial
    assert any(certified) and not all(certified)


@pytest.mark.parametrize("zeta, certified", [(0.2, True), (0.249, False)])
def test_the_certificate_refuses_a_sweep_too_slow_to_converge(zeta, certified):
    # a load in phase with its line's impedance drags the voltage furthest:
    # the sweep tends to r at rate L = zeta / r^2 from above, so at zeta =
    # 0.249 (L = 0.88) it needs about 140 iterations, past the cap of 50
    z = 0.1 + 0.1j
    problem = LoadFlowProblem.from_tree("S", [("L1", "S", "A", z)],
                                        {"A": zeta * z / abs(z) ** 2})
    r = certified_voltage(problem.s_pu, compile_certificate(problem, {"L1": 100.0}))
    if certified:
        _assert_within_certificate(problem, r, {"L1": 100.0})
        assert r == pytest.approx((1.0 + math.sqrt(1.0 - 4.0 * zeta)) / 2.0)
    else:
        assert r is None
        assert not solve_fbs(problem, _TOL, _MAX_ITER).converged


def test_the_certificate_on_non_finite_and_zero_injections():
    certificate = compile_certificate(_NAN_BRANCH, {"L1": 10.0, "L2": 10.0})
    assert certified_voltage(_NAN_BRANCH.s_pu, certificate) is None
    flat = LoadFlowProblem.from_tree("S", [("L1", "S", "A", 0.01 + 0.01j)], {})
    assert certified_voltage(flat.s_pu, compile_certificate(flat, {"L1": 0.0})) == 1.0
