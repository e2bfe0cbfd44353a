"""Cost-minimal load shedding for one sub-system.

The problem is a pure linear program over active power: choose per-node shed
amounts minimizing the shedding cost, subject to nodal balance with line
incidence signs, generator limits, shed bounds, and line capacities. Losses
are ignored here; the caller re-runs the load flow with the shed applied to
confirm feasibility.

Equal-cost optima are broken deterministically toward the lexicographically
smallest shed vector (in canonical node order) via a vanishing cost
perturbation: node k of n costs `cost + eps * (n - k) / n` to shed. The
reported objective is always recomputed from the unperturbed costs.

What the problems of one sub-system share, its node order, shed costs and
lines and what follows from them (the perturbed costs, the merit order of
the nodes, a spanning tree and the smallest line capacity), is compiled
once by `compile_skeleton`; a caller that knows a tree of the lines, as the
engine knows its feeder forest, hands it over, and otherwise the load flow's
breadth-first layout (`LoadFlowProblem.from_tree`) gives one. Given that
`ShedSkeleton`, `build_shedding_problem` fills in only the demands and the
generators, as named tuples; called without one, it compiles one first.

Two solvers share that rule:

* A merit-order greedy, exact when the lines form a spanning tree and the
  total positive generator capacity is at most the smallest line capacity.
  On a tree the flow on a line is the net injection of one side, which is
  bounded by that total, so no line limit can bind and the LP keeps a single
  balance row. Loads are served in decreasing perturbed cost (the node index
  breaks exact ties) from producers raised in increasing cost, with every
  generator starting at its lower bound; a charging battery therefore starts
  at full charge and backs off at its merit cost. Line flows are recovered
  from the tree. Problems with two adjustable generators of equal cost go to
  the simplex, because the split between them is not fixed by the costs.
* An exact bounded-variable two-phase simplex with Bland's rule, written for
  small dense problems (tens of variables), for every other problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .loadflow import LoadFlowProblem, NonRadialError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_TOL = 1e-9
_INFEASIBLE_TOL = 1e-7  # balance residual beyond which a problem is infeasible


class GeneratorVar(NamedTuple):
    id: str
    node: int
    min_mw: float
    max_mw: float
    cost: float = 0.0


class LineVar(NamedTuple):
    id: str
    from_node: int
    to_node: int
    capacity_mw: float


@dataclass(slots=True)  # not frozen: built per compile, and a frozen constructor is slower
class ShedSkeleton:
    """The fixed part of a sub-system's shedding problems."""

    node_ids: tuple
    index: dict           # node id -> position in `node_ids`
    shed_cost: tuple
    lines: tuple          # LineVar
    value: tuple          # perturbed shed costs (see `_perturbed_costs`)
    merit: tuple          # every node, by decreasing perturbed cost, then position
    # rooted at any node, children before parents: (node, parent, line index,
    # whether the line runs from the parent); None unless the lines form a spanning tree
    tree: Optional[tuple]
    min_capacity: float   # of the lines, inf without one

    def scaled(self, margin) -> ShedSkeleton:
        """This skeleton with each line capacity c made float(c * margin), as
        `compile_skeleton` makes it from lines of those capacities."""
        lines = tuple([tuple.__new__(LineVar, (*l[:3], float(l[3] * margin))) for l in self.lines])
        return replace(self, lines=lines, min_capacity=min([l[3] for l in lines], default=math.inf))


@dataclass(frozen=True, slots=True)
class SheddingProblem:
    node_ids: tuple
    demand_mw: tuple
    shed_cost: tuple
    generators: tuple
    lines: tuple
    skeleton: ShedSkeleton = field(compare=False, repr=False)


@dataclass(frozen=True)
class SheddingResult:
    status: str
    shed_mw: dict = field(default_factory=dict)        # node id -> MW
    generation_mw: dict = field(default_factory=dict)  # generator id -> MW
    line_flow_mw: dict = field(default_factory=dict)   # line id -> MW (from -> to)
    objective: float = 0.0


def compile_skeleton(node_ids, shed_cost, lines=(), tree=None) -> ShedSkeleton:
    """The fixed part of the problems `build_shedding_problem` makes from
    these node ids, shed costs and lines, each a `LineVar` made by
    `tuple.__new__`, past its Python-level `__new__`. A caller that knows the
    lines to form a tree passes it as `tree`: (node, parent, line id) for
    every node but the root, parents first; else the search of `from_tree`
    roots one at the first node, if the lines form a spanning tree."""
    ids = tuple(node_ids)
    index = dict(zip(ids, range(len(ids))))
    line_vars = tuple([tuple.__new__(LineVar, (i, index[a], index[b], float(c)))
                       for i, a, b, c in lines])
    assert all(l[1] != l[2] for l in line_vars)
    if tree is not None:  # children first, with the line's direction
        at = {l[0]: j for j, l in enumerate(line_vars)}
        tree = tuple([(index[m], k := index[p], j := at[l], line_vars[j][1] == k)
                      for m, p, l in reversed(tree)])
    else:  # the load flow's breadth-first layout from node 0, over line indices
        try:
            bfs = LoadFlowProblem.from_tree(
                0, [(j, l.from_node, l.to_node, 0) for j, l in enumerate(line_vars)], {})
            if len(bfs.bus_ids) == len(ids):
                tree = tuple([(m, k := bfs.bus_ids[p], j, line_vars[j][1] == k) for m, p, j in
                              reversed(tuple(zip(bfs.bus_ids, bfs.parent, bfs.line_ids))[1:])])
        except NonRadialError:  # the lines hold a cycle or miss node 0
            pass
    costs = tuple([float(shed_cost.get(b, 0.0)) for b in ids])
    value = tuple(_perturbed_costs(costs))
    return ShedSkeleton(ids, index, costs, line_vars, value,
                        tuple(sorted(range(len(ids)), key=value.__getitem__, reverse=True)),
                        tree, min([l[3] for l in line_vars], default=math.inf))


def build_shedding_problem(node_ids, demand_mw, shed_cost=None, generators=(),
                           lines=(), skeleton=None) -> SheddingProblem:
    """Assemble the LP for one sub-system.

    `generators` includes every supply path into the sub-system: production
    units capped at their drawn profile value, batteries at their dispatch
    bound (a negative lower bound means the battery may charge), and the
    upstream grid connection as a generator bounded by the feeder capacity.
    A `skeleton` compiled by `compile_skeleton` from these node ids stands in
    for `shed_cost` and `lines`, which are then not read.
    """
    if skeleton is None:
        skeleton = compile_skeleton(node_ids, shed_cost, lines)
    order = skeleton.index
    return SheddingProblem(
        node_ids=skeleton.node_ids,
        demand_mw=tuple(float(demand_mw.get(b, 0.0)) for b in skeleton.node_ids),
        shed_cost=skeleton.shed_cost,
        generators=tuple(GeneratorVar(g[0], order[g[1]], float(g[2]), float(g[3]),
                                      float(g[4]) if len(g) > 4 else 0.0)
                         for g in generators),
        lines=skeleton.lines,
        skeleton=skeleton,
    )


def solve_shedding(problem: SheddingProblem) -> SheddingResult:
    """Solve the LP to global optimality."""
    fast = _solve_tree_greedy(problem)
    return fast if fast is not None else _solve_dense(problem)


def _solve_dense(problem: SheddingProblem) -> SheddingResult:
    """The bounded simplex over the full LP."""
    n = len(problem.node_ids)
    ng = len(problem.generators)
    nl = len(problem.lines)
    nv = n + ng + nl  # shed vars, generator vars, flow vars

    demand = np.asarray(problem.demand_mw, dtype=float)
    cost = np.asarray(problem.shed_cost, dtype=float)

    lo = np.empty(nv)
    hi = np.empty(nv)
    c = np.zeros(nv)
    lo[:n] = 0.0
    hi[:n] = demand
    c[:n] = problem.skeleton.value
    for j, g in enumerate(problem.generators):
        lo[n + j] = g.min_mw
        hi[n + j] = g.max_mw
        c[n + j] = g.cost
    for j, l in enumerate(problem.lines):
        lo[n + ng + j] = -l.capacity_mw
        hi[n + ng + j] = l.capacity_mw

    # nodal balance rows: gamma.f - sum(gen) - shed = -demand
    a = np.zeros((n, nv))
    b = -demand.copy()
    for k in range(n):
        a[k, k] = -1.0
    for j, g in enumerate(problem.generators):
        a[g.node, n + j] = -1.0
    for j, l in enumerate(problem.lines):
        a[l.from_node, n + ng + j] = 1.0
        a[l.to_node, n + ng + j] = -1.0

    x, status = _bounded_simplex(a, b, c, lo, hi)
    if status != OPTIMAL:
        return SheddingResult(status=INFEASIBLE)

    shed = {bid: float(x[i]) for i, bid in enumerate(problem.node_ids)}
    gen = {g.id: float(x[n + j]) for j, g in enumerate(problem.generators)}
    flow = {l.id: float(x[n + ng + j]) for j, l in enumerate(problem.lines)}
    objective = float(np.dot(cost, x[:n]))
    return SheddingResult(OPTIMAL, shed, gen, flow, objective)


def _perturbed_costs(shed_cost):
    """Shed costs made marginally higher for earlier nodes, which pins ties
    to the lexicographically smallest shed vector."""
    n = len(shed_cost)
    eps = 1e-9 * (1.0 + max(map(abs, shed_cost), default=0.0))
    return [c + eps * ((n - k) / n) for k, c in enumerate(shed_cost)]


def _solve_tree_greedy(problem):
    """Merit-order solution when the lines form a spanning tree none of whose
    limits can bind; None when the problem is not of that kind."""
    skeleton = problem.skeleton
    demand, gens, lines = problem.demand_mw, problem.generators, problem.lines
    if skeleton.tree is None or min(demand) < 0.0:
        return None
    if any(g.min_mw > g.max_mw for g in gens):
        return None
    if sum(max(g.max_mw, 0.0) for g in gens) > skeleton.min_capacity:
        return None
    movable = sorted((j for j, g in enumerate(gens) if g.max_mw - g.min_mw > _TOL),
                     key=lambda j: gens[j].cost)
    if any(gens[a].cost == gens[b].cost for a, b in zip(movable, movable[1:])):
        return None

    n = len(demand)
    value = skeleton.value
    loads = [k for k in skeleton.merit if demand[k] > 0.0]
    top = [g.max_mw for g in gens]
    out = [g.min_mw for g in gens]
    served = [0.0] * n
    # close the imbalance left by the lower bounds, then trade while it pays
    gap = sum(out)
    li, left = _raise(loads, 0, served, demand, gap)
    pi, short = _raise(movable, 0, out, top, -gap)
    if left > _INFEASIBLE_TOL or short > _INFEASIBLE_TOL:
        return SheddingResult(status=INFEASIBLE)
    while (li < len(loads) and pi < len(movable)
           and gens[movable[pi]].cost < value[loads[li]]):
        k, j = loads[li], movable[pi]
        step = min(demand[k] - served[k], top[j] - out[j])
        li, _ = _raise(loads, li, served, demand, step)
        pi, _ = _raise(movable, pi, out, top, step)

    # each subtree's net injection flows over the line to its parent
    inject = [-u for u in served]
    for g, p in zip(gens, out):
        inject[g.node] += p
    flow = [0.0] * len(lines)
    for m, k, j, from_parent in skeleton.tree:
        flow[j] = -inject[m] if from_parent else inject[m]
        inject[k] += inject[m]

    shed = [d - u for d, u in zip(demand, served)]
    return SheddingResult(
        OPTIMAL,
        dict(zip(problem.node_ids, shed)),
        {g.id: p for g, p in zip(gens, out)},
        {l.id: f for l, f in zip(lines, flow)},
        sum(c * s for c, s in zip(problem.shed_cost, shed)))


def _raise(order, pos, level, top, amount):
    """Raise level[i] toward top[i] for i in order[pos:], front first, by
    `amount` in total; returns the new front and the amount left over."""
    while amount > 0.0 and pos < len(order):
        i = order[pos]
        room = top[i] - level[i]
        if room > amount:
            level[i] += amount  # may round up to top[i], which ends item i
            return pos + (level[i] >= top[i]), 0.0
        level[i] = top[i]
        amount -= room
        pos += 1
    return pos, max(amount, 0.0)


def _bounded_simplex(a, b, c, lo, hi):
    """Two-phase simplex for min c.x s.t. a x = b, lo <= x <= hi.

    All bounds must be finite. Bland's rule on entering and leaving variables
    guarantees termination. Returns (x, status).
    """
    m, nv = a.shape
    # artificial columns form the initial basis
    art = np.arange(nv, nv + m)
    x = lo.copy()
    resid = b - a @ x
    a_full = np.hstack([a, np.diag(np.where(resid >= 0, 1.0, -1.0))])
    lo_full = np.concatenate([lo, np.zeros(m)])
    hi_full = np.concatenate([hi, np.full(m, np.inf)])
    x_full = np.concatenate([x, np.abs(resid)])

    basis = list(art)
    at_upper = np.zeros(nv + m, dtype=bool)

    phase1_cost = np.concatenate([np.zeros(nv), np.ones(m)])
    stat = _simplex_core(a_full, b, phase1_cost, lo_full, hi_full, x_full, basis, at_upper)
    if stat != OPTIMAL or float(phase1_cost @ x_full) > _INFEASIBLE_TOL:
        return x_full[:nv], INFEASIBLE

    # pin artificials at zero for phase 2
    hi_full[nv:] = 0.0
    x_full[nv:] = 0.0
    phase2_cost = np.concatenate([c, np.zeros(m)])
    stat = _simplex_core(a_full, b, phase2_cost, lo_full, hi_full, x_full, basis, at_upper)
    if stat != OPTIMAL:
        return x_full[:nv], stat
    return x_full[:nv], OPTIMAL


def _simplex_core(a, b, c, lo, hi, x, basis, at_upper, max_pivots=5000):
    m, total = a.shape
    basic = np.zeros(total, dtype=bool)
    basic[basis] = True

    # re-anchor the basic values exactly at phase entry
    nonbasic = ~basic
    rhs = b - a[:, nonbasic] @ x[nonbasic]
    try:
        x[basis] = np.linalg.solve(a[:, basis], rhs)
    except np.linalg.LinAlgError:
        return "singular"

    for _ in range(max_pivots):
        bmat = a[:, basis]
        try:
            y = np.linalg.solve(bmat.T, c[basis])
        except np.linalg.LinAlgError:
            return "singular"
        reduced = c - y @ a

        # Bland: smallest-index nonbasic variable with a favorable direction
        entering = -1
        direction = 0.0
        for j in range(total):
            if basic[j] or hi[j] - lo[j] <= _TOL:
                continue
            if not at_upper[j] and reduced[j] < -_TOL:
                entering, direction = j, 1.0
                break
            if at_upper[j] and reduced[j] > _TOL:
                entering, direction = j, -1.0
                break
        if entering < 0:
            return OPTIMAL

        w = np.linalg.solve(bmat, a[:, entering])

        # ratio test: entering variable's own span competes with every basic
        # variable hitting one of its bounds; ties resolve by variable index
        limit = hi[entering] - lo[entering]
        blocker = entering
        leaving_row = -1
        leaving_to_upper = False
        for i in range(m):
            delta = direction * w[i]
            vi = basis[i]
            if delta > _TOL:
                room = (x[vi] - lo[vi]) / delta
                to_upper = False
            elif delta < -_TOL:
                room = (hi[vi] - x[vi]) / (-delta)
                to_upper = True
            else:
                continue
            room = max(room, 0.0)
            if room < limit - _TOL or (room <= limit + _TOL and vi < blocker):
                limit = min(limit, room)
                blocker = vi
                leaving_row = i
                leaving_to_upper = to_upper
        if not np.isfinite(limit):
            return "unbounded"

        x[entering] += direction * limit
        for i in range(m):
            x[basis[i]] -= direction * limit * w[i]

        if leaving_row < 0:
            # bound flip: the entering variable crossed its whole range
            at_upper[entering] = not at_upper[entering]
            continue

        leaving = basis[leaving_row]
        x[leaving] = hi[leaving] if leaving_to_upper else lo[leaving]
        basic[leaving] = False
        basic[entering] = True
        at_upper[leaving] = leaving_to_upper
        at_upper[entering] = False
        basis[leaving_row] = entering

    return "stalled"
