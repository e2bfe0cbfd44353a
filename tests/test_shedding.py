import numpy as np
import pytest

from gridrel.shedding import (
    INFEASIBLE, OPTIMAL, build_shedding_problem, solve_shedding,
)

from oracles import random_shedding_instance, reference_shedding


def _solve(nodes, demand, cost, generators=(), lines=()):
    return solve_shedding(build_shedding_problem(nodes, demand, cost,
                                                 generators, lines))


def test_ample_generation_sheds_nothing():
    res = _solve(["A", "B"], {"A": 1.0, "B": 2.0}, {"A": 1.0, "B": 1.0},
                 [("G", "A", 0.0, 10.0)], [("L", "A", "B", 10.0)])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert sum(res.shed_mw.values()) == pytest.approx(0.0, abs=1e-9)


def test_single_line_bottleneck():
    # 1.5 MW demand behind a 1.0 MW line: shed exactly the excess
    res = _solve(["S", "D"], {"D": 1.5}, {"D": 2.0},
                 [("G", "S", 0.0, 10.0)], [("L", "S", "D", 1.0)])
    assert res.status == OPTIMAL
    assert res.shed_mw["D"] == pytest.approx(0.5, abs=1e-9)
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_cheaper_load_sheds_first():
    res = _solve(["S", "A", "B"], {"A": 1.0, "B": 1.0}, {"A": 1.0, "B": 2.0},
                 [("G", "S", 0.0, 10.0)],
                 [("L1", "S", "A", 1.2), ("L2", "A", "B", 1.0)])
    assert res.status == OPTIMAL
    assert res.shed_mw["A"] == pytest.approx(0.8, abs=1e-8)
    assert res.shed_mw["B"] == pytest.approx(0.0, abs=1e-8)
    assert res.objective == pytest.approx(0.8, abs=1e-8)


def test_islanded_with_no_source_sheds_everything():
    res = _solve(["A", "B"], {"A": 0.5, "B": 0.5}, {"A": 1.0, "B": 1.0},
                 [], [("L", "A", "B", 1.0)])
    assert res.status == OPTIMAL
    assert sum(res.shed_mw.values()) == pytest.approx(1.0, abs=1e-9)


def test_equal_costs_break_toward_lexicographically_minimal_shed():
    res = _solve(["A", "B"], {"A": 1.0, "B": 1.0}, {"A": 1.0, "B": 1.0},
                 [("G", "A", 0.0, 1.2)], [("L", "A", "B", 1.2)])
    assert res.shed_mw["A"] == pytest.approx(0.0, abs=1e-9)
    assert res.shed_mw["B"] == pytest.approx(0.8, abs=1e-8)


def test_charging_battery_modeled_as_negative_generator():
    res = _solve(["A"], {"A": 0.0}, {"A": 1.0},
                 [("W", "A", 0.0, 1.0), ("BAT", "A", -0.4, 0.0, 1e-7)])
    assert res.status == OPTIMAL
    # the merit epsilon rewards charging from the free surplus
    assert res.generation_mw["BAT"] == pytest.approx(-0.4, abs=1e-8)
    assert res.generation_mw["W"] == pytest.approx(0.4, abs=1e-8)


def test_forced_minimum_generation_can_be_infeasible():
    res = _solve(["A"], {"A": 0.1}, {"A": 1.0}, [("G", "A", 5.0, 6.0)])
    assert res.status == INFEASIBLE


def test_deterministic_resolve():
    nodes, demand, cost, gens, lines = random_shedding_instance(
        np.random.default_rng(3))
    a = _solve(nodes, demand, cost, gens, lines)
    b = _solve(nodes, demand, cost, gens, lines)
    assert a == b


def test_matches_reference_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(250):
        nodes, demand, cost, gens, lines = random_shedding_instance(rng)
        res = _solve(nodes, demand, cost, gens, lines)
        status, objective = reference_shedding(nodes, demand, cost, gens, lines)
        if status == "infeasible":
            assert res.status == INFEASIBLE
            continue
        checked += 1
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(objective, abs=1e-6)
        _assert_feasible(nodes, demand, cost, gens, lines, res)
    assert checked > 150


def _assert_feasible(nodes, demand, cost, gens, lines, res):
    balance = {b: -demand.get(b, 0.0) + res.shed_mw[b] for b in nodes}
    for gid, bus, gmin, gmax, *_ in gens:
        out = res.generation_mw[gid]
        assert gmin - 1e-6 <= out <= gmax + 1e-6
        balance[bus] += out
    for lid, frm, to, cap in lines:
        flow = res.line_flow_mw[lid]
        assert abs(flow) <= cap + 1e-6
        balance[frm] -= flow
        balance[to] += flow
    for b in nodes:
        assert abs(balance[b]) < 1e-6
        assert -1e-9 <= res.shed_mw[b] <= demand.get(b, 0.0) + 1e-9


def test_raising_cost_never_lowers_objective():
    rng = np.random.default_rng(11)
    for _ in range(60):
        nodes, demand, cost, gens, lines = random_shedding_instance(rng)
        base = _solve(nodes, demand, cost, gens, lines)
        if base.status != OPTIMAL:
            continue
        bumped = dict(cost)
        victim = nodes[int(rng.integers(0, len(nodes)))]
        bumped[victim] = bumped.get(victim, 0.0) + float(rng.uniform(0.1, 3.0))
        res = _solve(nodes, demand, bumped, gens, lines)
        assert res.status == OPTIMAL
        assert res.objective >= base.objective - 1e-7
