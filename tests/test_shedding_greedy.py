"""The merit-order greedy against the dense simplex and HiGHS, and
compiled shedding skeletons against problems built from scratch.

`solve_shedding` answers radial problems whose line limits cannot bind with
a greedy and everything else with the dense simplex. These tests replay the
LPs of real IEEE-33 runs through both solvers and through a problem built
without the sub-system's compiled skeleton, and check generated eligible
trees against HiGHS.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel import shedding
from gridrel.engine import SimulationConfig, TopologyCache, run_iteration
from gridrel.network import build_network
from gridrel.scenarios import apply_scenario
from gridrel.shedding import INFEASIBLE, OPTIMAL, build_shedding_problem
from gridrel.timeseries import ProfileSet

from oracles import reference_shedding


def _assert_agree(fast, dense):
    assert fast.status == dense.status
    if fast.status != OPTIMAL:
        return
    for field in ("shed_mw", "generation_mw", "line_flow_mw"):
        a, b = getattr(fast, field), getattr(dense, field)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12), (field, key)


def _lp_stream(case, ieee33_spec, bundled_profiles, cost_table, monkeypatch):
    """Every shedding problem 40 iterations of the preset solve, in order."""
    loads, wind = bundled_profiles
    profiles = ProfileSet(1.0, 8760.0, loads, wind)
    config = SimulationConfig(iterations=40, master_seed=11)
    model = build_network(apply_scenario(ieee33_spec, case))

    problems = []
    solve = shedding.solve_shedding

    def recording(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(shedding, "solve_shedding", recording)
    topology = TopologyCache(model, profiles, config, cost_table)
    for i in range(config.iterations):
        run_iteration(topology, i)
    monkeypatch.undo()
    return problems


def _from_scratch(problem):
    """The problem built again without a skeleton, from its own fields."""
    ids = problem.node_ids
    return build_shedding_problem(
        ids, dict(zip(ids, problem.demand_mw)), dict(zip(ids, problem.shed_cost)),
        [(g.id, ids[g.node], g.min_mw, g.max_mw, g.cost) for g in problem.generators],
        [(l.id, ids[l.from_node], ids[l.to_node], l.capacity_mw) for l in problem.lines])


@pytest.mark.parametrize("case", ["case2", "case4"])
def test_greedy_matches_simplex_on_ieee33_lp_stream(case, ieee33_spec,
                                                    bundled_profiles, cost_table,
                                                    monkeypatch):
    problems = _lp_stream(case, ieee33_spec, bundled_profiles, cost_table, monkeypatch)
    assert len(problems) > 20
    for problem in problems:
        fast = shedding._solve_tree_greedy(problem)
        assert fast is not None, "an IEEE-33 preset LP missed the fast path"
        _assert_agree(fast, shedding._solve_dense(problem))


@pytest.mark.parametrize("case", ["case2", "case4"])
def test_compiled_skeletons_solve_the_ieee33_lp_stream_as_built_from_scratch(
        case, ieee33_spec, bundled_profiles, cost_table, monkeypatch):
    problems = _lp_stream(case, ieee33_spec, bundled_profiles, cost_table, monkeypatch)
    # the engine fills each sub-system's one skeleton again and again
    assert len({id(problem.skeleton) for problem in problems}) < len(problems) / 2
    for problem in problems:
        fresh = _from_scratch(problem)
        assert fresh == problem and fresh.skeleton is not problem.skeleton
        assert shedding.solve_shedding(problem) == shedding.solve_shedding(fresh)


def _tree_from(problem, root):
    """(node, parent, line id) for every node of the problem's tree but
    `root`, breadth first from it: a forest pass's tree rooted at `root`."""
    ids, adjacent = problem.node_ids, {}
    for line in problem.lines:
        a, b = ids[line.from_node], ids[line.to_node]
        adjacent.setdefault(a, []).append((b, line.id))
        adjacent.setdefault(b, []).append((a, line.id))
    order, tree = [root], []
    for bus in order:
        for other, line_id in adjacent.get(bus, ()):
            if other not in order:
                order.append(other)
                tree.append((other, bus, line_id))
    return tree


@pytest.mark.parametrize("case", ["case2", "case4"])
def test_a_skeleton_from_the_forest_solves_as_one_from_the_search(
        case, ieee33_spec, bundled_profiles, cost_table, monkeypatch):
    # The engine compiles each sub-system's tree from the feeder forest, rooted
    # at its top bus; without one, `compile_skeleton` takes the load flow's
    # breadth-first layout from node 0. Rooted at the
    # last node too, the tree changes only the order in which the flows are
    # summed.
    problems = _lp_stream(case, ieee33_spec, bundled_profiles, cost_table, monkeypatch)
    assert len(problems) > 20
    for problem in problems:
        ids = problem.node_ids
        searched = shedding.solve_shedding(_from_scratch(problem))
        for skeleton in (problem.skeleton, shedding.compile_skeleton(
                ids, dict(zip(ids, problem.shed_cost)),
                [(l.id, ids[l.from_node], ids[l.to_node], l.capacity_mw) for l in problem.lines],
                tree=_tree_from(problem, ids[-1]))):
            assert skeleton.tree is not None
            result = shedding.solve_shedding(replace(problem, skeleton=skeleton))
            assert (result.status, result.shed_mw, result.generation_mw) == (
                searched.status, searched.shed_mw, searched.generation_mw)
            assert result.line_flow_mw.keys() == searched.line_flow_mw.keys()
            for line, flow in result.line_flow_mw.items():
                assert flow == pytest.approx(searched.line_flow_mw[line], rel=0.0, abs=1e-12)


def test_a_skeleton_without_a_given_tree_roots_the_lines_tree_at_the_first_node():
    # (node, parent, line index, whether the line runs from the parent)
    lines = [("L1", "C", "A", 5.0), ("L2", "B", "D", 5.0), ("L3", "A", "B", 5.0)]
    tree = shedding.compile_skeleton(["A", "B", "C", "D"], {}, lines).tree
    assert sorted(tree) == [(1, 0, 2, True), (2, 0, 0, False), (3, 1, 1, True)]
    # children before parents
    position = {node: k for k, (node, *_) in enumerate(tree)}
    assert all(position[node] < position.get(parent, len(tree)) for node, parent, *_ in tree)


@pytest.mark.parametrize("nodes, lines", [
    # a cycle, with as many lines as a tree over the four nodes would have
    (["A", "B", "C", "D"], [("L1", "A", "B", 5.0), ("L2", "B", "C", 5.0),
                            ("L3", "C", "A", 5.0)]),
    # a tree that misses a node
    (["A", "B", "C"], [("L1", "A", "B", 5.0)]),
    # lines that miss the first node
    (["A", "B", "C"], [("L1", "B", "C", 5.0)]),
    # two parallel lines
    (["A", "B"], [("L1", "A", "B", 5.0), ("L2", "B", "A", 5.0)]),
], ids=["cycle", "missed-node", "missed-first-node", "parallel"])
def test_a_skeleton_of_lines_that_are_no_spanning_tree_has_no_tree(nodes, lines):
    assert shedding.compile_skeleton(nodes, {}, lines).tree is None


@pytest.mark.parametrize("lines", [
    # the 1.0 MW line binds below the sources
    [("L1", "A", "B", 1.0), ("L2", "B", "C", 5.0)],
    # three lines over three nodes: a mesh
    [("L1", "A", "B", 5.0), ("L2", "B", "C", 5.0), ("L3", "C", "A", 0.3)],
], ids=["line-bound", "mesh"])
def test_a_compiled_skeleton_solves_as_built_from_scratch_on_the_simplex(lines):
    nodes, cost = ["A", "B", "C"], {"A": 1.0, "B": 2.0, "C": 3.0}
    skeleton = shedding.compile_skeleton(nodes, cost, lines)
    for demand, gens in [
            ({"A": 0.5, "B": 0.7, "C": 0.4}, [("G", "A", 0.0, 2.0)]),
            ({"A": 0.2, "B": 1.4, "C": 0.9}, [("G", "A", 0.0, 1.5), ("S", "C", -0.3, 0.4, 1e-7)]),
            ({"B": 3.0}, [("G", "A", 0.2, 0.6), ("S", "C", 0.0, 1.2, 5.5)])]:
        compiled = build_shedding_problem(nodes, demand, generators=gens, skeleton=skeleton)
        fresh = build_shedding_problem(nodes, demand, cost, gens, lines)
        assert shedding._solve_tree_greedy(compiled) is None
        assert compiled == fresh
        assert shedding.solve_shedding(compiled) == shedding.solve_shedding(fresh)


# MW on a 0.05 grid, so that no sum falls within a solver tolerance of
# another; shed costs from the bundled cost table, and generator costs off
# the shed-cost grid, so that the dense simplex sees no near-ties either
_MW = st.integers(0, 60).map(lambda i: i / 20)
_SHED_COSTS = st.sampled_from([12.0, 20.0, 45.0, 110.0])
_GEN_COSTS = st.sampled_from([0.0, 1e-7, 5.5, 30.5, 200.5])


@st.composite
def eligible_trees(draw):
    """Random trees whose line capacities cover the total generation, with
    forced minimums, charging batteries, zero demands and equal shed costs."""
    n = draw(st.integers(1, 8))
    nodes = [f"N{i}" for i in range(n)]
    ends = [(nodes[draw(st.integers(0, m - 1))], nodes[m]) for m in range(1, n)]
    ends = [(b, a) if draw(st.booleans()) else (a, b) for a, b in ends]
    demand = {b: draw(_MW) for b in nodes}
    cost = {b: draw(_SHED_COSTS) for b in nodes}
    gens = []
    for j, gen_cost in enumerate(draw(st.lists(_GEN_COSTS, max_size=4, unique=True))):
        bus = draw(st.sampled_from(nodes))
        if draw(st.integers(0, 3)) == 0:  # a charging battery
            gens.append((f"G{j}", bus, -draw(_MW), 0.0, gen_cost))
            continue
        gmax = draw(_MW)
        gmin = draw(_MW.filter(lambda v: v <= gmax)) if draw(st.booleans()) else 0.0
        gens.append((f"G{j}", bus, gmin, gmax, gen_cost))
    supply = sum(max(g[3], 0.0) for g in gens)
    lines = [(f"L{m}", a, b, supply + draw(_MW)) for m, (a, b) in enumerate(ends)]
    return nodes, demand, cost, gens, lines


@settings(max_examples=300, deadline=None)
@given(eligible_trees())
def test_greedy_is_exact_on_eligible_trees(instance):
    nodes, demand, cost, gens, lines = instance
    problem = build_shedding_problem(nodes, demand, cost, gens, lines)
    fast = shedding._solve_tree_greedy(problem)
    assert fast is not None
    assert fast == shedding.solve_shedding(problem)

    status, objective = reference_shedding(nodes, demand, cost, gens, lines)
    if status == "infeasible":
        assert fast.status == INFEASIBLE
        return
    assert fast.status == OPTIMAL
    gen_cost = sum(g[4] * fast.generation_mw[g[0]] for g in gens)
    assert fast.objective + gen_cost == pytest.approx(objective, abs=1e-6)
    dense = shedding._solve_dense(problem)
    for b in nodes:
        assert fast.shed_mw[b] == pytest.approx(dense.shed_mw[b], abs=1e-9)
    _assert_balanced(nodes, demand, gens, lines, fast)


def _assert_balanced(nodes, demand, gens, lines, res):
    balance = {b: res.shed_mw[b] - demand[b] for b in nodes}
    for gid, bus, gmin, gmax, _cost in gens:
        assert gmin - 1e-9 <= res.generation_mw[gid] <= gmax + 1e-9
        balance[bus] += res.generation_mw[gid]
    for lid, frm, to, cap in lines:
        flow = res.line_flow_mw[lid]
        assert abs(flow) <= cap + 1e-9
        balance[frm] -= flow
        balance[to] += flow
    for b in nodes:
        assert abs(balance[b]) < 1e-9
        assert 0.0 <= res.shed_mw[b] <= demand[b]


def test_forced_minimum_beyond_demand_is_infeasible_on_the_fast_path():
    problem = build_shedding_problem(["A", "B"], {"A": 0.2, "B": 0.3},
                                     {"A": 1.0, "B": 1.0},
                                     [("G", "A", 0.8, 1.0)], [("L", "A", "B", 2.0)])
    res = shedding._solve_tree_greedy(problem)
    assert res is not None and res.status == INFEASIBLE


@pytest.mark.parametrize("gens, lines", [
    # the 1.0 MW line binds below the 2.0 MW source
    ([("G", "A", 0.0, 2.0)], [("L1", "A", "B", 1.0), ("L2", "B", "C", 5.0)]),
    # three lines over three nodes: a mesh
    ([("G", "A", 0.0, 1.0)], [("L1", "A", "B", 5.0), ("L2", "B", "C", 5.0),
                              ("L3", "C", "A", 5.0)]),
    # two adjustable producers of equal cost
    ([("G1", "A", 0.0, 1.0, 0.0), ("G2", "C", 0.0, 1.0, 0.0)],
     [("L1", "A", "B", 5.0), ("L2", "B", "C", 5.0)]),
])
def test_ineligible_problems_go_to_the_simplex(gens, lines):
    problem = build_shedding_problem(["A", "B", "C"], {"A": 0.5, "B": 0.7, "C": 0.4},
                                     {"A": 1.0, "B": 2.0, "C": 3.0}, gens, lines)
    assert shedding._solve_tree_greedy(problem) is None
    assert shedding.solve_shedding(problem) == shedding._solve_dense(problem)
