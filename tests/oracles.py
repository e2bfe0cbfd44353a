"""Independent reference implementations used only to check the package.

These deliberately share no code with the solvers under test: the AC oracle
is a damped Newton on the full complex power equations with a finite
difference Jacobian, the LP oracle is scipy's HiGHS, the topology
oracles rescan every line of the model for each question they answer, and
the phase oracles step a float countdown by one increment at a time.
The load-flow oracles are the engine's former per-call path: a layout built
by `LoadFlowProblem.from_tree` for every sweep, and the sweep on numpy
arrays. `reference_state` is the engine's former state compiler, which
searched the network afresh for each switching state,
`reference_isolation` the closed form's former isolation rule, and
`reference_forest` the network model's former feeder walk and checks.
`reference_subsystem` is the engine's former sub-system compiler, which
looked every bus up in the model's maps, and `reference_skeleton` the
former shedding skeleton compiler, one generator per part.
"""

import math

import numpy as np
from scipy.optimize import linprog

from gridrel.loadflow import (SLACK_VOLTAGE, LoadFlowProblem, LoadFlowSolution, NonRadialError,
                              compile_totals)
from gridrel.network import connected_components
from gridrel.shedding import LineVar, ShedSkeleton


def newton_ac(bus_ids, edges, s_load_pu, slack, v_slack=1.0,
              tol=1e-12, max_iter=300):
    """Solve S_i = V_i * conj(sum_k Y_ik V_k) for all non-slack buses.

    edges: (line_id, bus_a, bus_b, z_pu). Returns dict bus -> complex V.
    """
    n = len(bus_ids)
    index = {b: i for i, b in enumerate(bus_ids)}
    y = np.zeros((n, n), dtype=complex)
    for _, a, b, z in edges:
        ia, ib = index[a], index[b]
        ladm = 1.0 / z
        y[ia, ia] += ladm
        y[ib, ib] += ladm
        y[ia, ib] -= ladm
        y[ib, ia] -= ladm

    s_spec = np.array([-complex(s_load_pu.get(b, 0.0)) for b in bus_ids])
    slack_i = index[slack]
    free = [i for i in range(n) if i != slack_i]

    v = np.full(n, complex(v_slack))

    def mismatch(x):
        vv = v.copy()
        vv[free] = x[:len(free)] + 1j * x[len(free):]
        s_calc = vv * np.conj(y @ vv)
        m = s_calc[free] - s_spec[free]
        return np.concatenate([m.real, m.imag])

    x = np.concatenate([v[free].real, v[free].imag])
    for _ in range(max_iter):
        f = mismatch(x)
        err = np.max(np.abs(f)) if f.size else 0.0
        if err < tol:
            break
        jac = np.zeros((len(f), len(x)))
        h = 1e-7
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (mismatch(xp) - f) / h
        step = np.linalg.solve(jac, -f)
        alpha = 1.0
        norm0 = np.linalg.norm(f)
        while alpha > 1e-6:
            trial = x + alpha * step
            if np.linalg.norm(mismatch(trial)) < norm0:
                break
            alpha *= 0.5
        x = x + alpha * step

    v[free] = x[:len(free)] + 1j * x[len(free):]
    return {b: v[index[b]] for b in bus_ids}


def reference_shedding(node_ids, demand, cost, generators, lines):
    """HiGHS solution of the shedding LP; returns (status, objective).

    The objective includes the generator costs (a fifth tuple element,
    default 0), which `SheddingResult.objective` leaves out.
    """
    n = len(node_ids)
    order = {b: i for i, b in enumerate(node_ids)}
    nv = n + len(generators) + len(lines)
    c = np.zeros(nv)
    a = np.zeros((n, nv))
    rhs = np.zeros(n)
    bounds = []
    for i, b in enumerate(node_ids):
        c[i] = cost.get(b, 0.0)
        a[i, i] = -1.0
        rhs[i] = -demand.get(b, 0.0)
        bounds.append((0.0, demand.get(b, 0.0)))
    for j, (gid, bus, gmin, gmax, *rest) in enumerate(generators):
        a[order[bus], n + j] = -1.0
        c[n + j] = rest[0] if rest else 0.0
        bounds.append((gmin, gmax))
    for k, (lid, frm, to, cap) in enumerate(lines):
        a[order[frm], n + len(generators) + k] = 1.0
        a[order[to], n + len(generators) + k] = -1.0
        bounds.append((-cap, cap))
    res = linprog(c, A_eq=a, b_eq=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        return "infeasible", None
    return "optimal", float(res.fun)


def random_shedding_instance(rng, max_nodes=8, max_lines=10):
    """A random (possibly disconnected, possibly infeasible) instance."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = [f"N{i:02d}" for i in range(n)]
    demand = {b: float(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])) for b in nodes}
    cost = {b: float(rng.choice([0.0, 1.0, 2.0, rng.uniform(0.1, 5.0)])) for b in nodes}
    generators = []
    for j in range(int(rng.integers(0, 4))):
        bus = nodes[int(rng.integers(0, n))]
        gmax = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 4.0)]))
        gmin = float(rng.uniform(0, gmax)) if rng.random() < 0.3 else 0.0
        generators.append((f"G{j}", bus, gmin, gmax))
    lines = []
    if n >= 2:
        for k in range(int(rng.integers(0, max_lines + 1))):
            a_, b_ = rng.choice(n, size=2, replace=False)
            cap = float(rng.choice([0.5, 1.0, rng.uniform(0.2, 3.0)]))
            lines.append((f"L{k}", nodes[int(a_)], nodes[int(b_)], cap))
    return nodes, demand, cost, generators, lines


def reference_breakers(model, switch_closed, failed):
    """Feeder breaker -> closed. A breaker opens while a path of lines whose
    switches are closed (breakers counted closed) leads from its root to a
    failed line."""
    def passable(line):
        return all(switch_closed[s] or model.switchgear[s].kind == "breaker"
                   for s in model.switchgear if model.switchgear[s].host_line == line.id)

    verdicts = {}
    for dsys in model.distribution_systems:
        reached, frontier, sees_fault = {dsys.root_bus}, [dsys.root_bus], False
        while frontier and not sees_fault:
            bus = frontier.pop()
            for line in model.lines.values():
                if bus not in (line.from_bus, line.to_bus) or not passable(line):
                    continue
                if line.id in failed:
                    sees_fault = True
                    break
                other = line.to_bus if line.from_bus == bus else line.from_bus
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        verdicts[model.breaker_of_system[dsys.id]] = not sees_fault
    return verdicts


def reference_lines_inside(model, buses, switch_closed, failed):
    """Ids of the conducting lines with both ends in `buses`, in id order."""
    return [line.id for line in sorted(model.lines.values(), key=lambda l: l.id)
            if line.id not in failed
            and line.from_bus in buses and line.to_bus in buses
            and all(switch_closed[s] for s in model.switchgear
                    if model.switchgear[s].host_line == line.id)]


def reference_grid_flows_ok(root, lines, demand, eps=1e-9):
    """Whether serving `demand` from `root` over the radial `lines`
    (id, bus, bus, capacity) keeps every line within its capacity: each line
    carries the demand of the side that cutting it separates from the root."""
    def side(start, without):
        seen, frontier = {start}, [start]
        while frontier:
            bus = frontier.pop()
            for line_id, a, b, _ in lines:
                if line_id != without and bus in (a, b):
                    other = b if bus == a else a
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        return seen

    for line_id, a, b, capacity in lines:
        upstream = side(root, line_id)
        far = side(b if a in upstream else a, line_id)
        if sum(demand.get(bus, 0.0) for bus in sorted(far)) > capacity + eps:
            return False
    return True


def countdown_line_phase(duration_h, dt_h, eps=1e-9):
    """Increments until a line's sectioning or repair phase completes: the
    remaining time is checked against `dt - eps` at the start of each
    increment and stepped down by `dt`, not below 0, at its end."""
    remaining, increments = duration_h, 0
    while not remaining < dt_h - eps:
        remaining = max(remaining - dt_h, 0.0)
        increments += 1
    return increments


def countdown_repair(duration_h, dt_h, eps=1e-9):
    """(increments down, reported) for a transformer or ICT repair: completed
    and reported when the remaining time is below `dt - eps` at the start of
    an increment; stepped down by `dt` at its end and completed silently,
    without a report, once at most `eps` is left."""
    remaining, increments = duration_h, 0
    while not remaining < dt_h - eps:
        remaining -= dt_h
        increments += 1
        if remaining <= eps:
            return increments, False
    return increments, True


def per_call_fbs_problem(buses, live_demand, demand_q, lines, gen_bus, result, slack,
                         base):
    """The load-flow problem of one sub-system, built from scratch: net
    consumption per bus with the shed applied at constant power factor,
    non-slack generation as unity power factor injection, in per unit."""
    injections = {}
    for b in buses:
        d = live_demand.get(b, 0.0) - result.shed_mw.get(b, 0.0)
        q = demand_q.get(b, 0.0)
        full = live_demand.get(b, 0.0)
        if full > 1e-9:
            q *= d / full
        else:
            q = 0.0
        injections[b] = complex(d, q)
    for gen_id, output in result.generation_mw.items():
        bus = gen_bus.get(gen_id)
        if bus is not None and bus != slack:
            injections[bus] -= output
    injections = {b: s / base for b, s in injections.items()}
    edges = [(l.id, l.from_bus, l.to_bus, complex(l.r_pu, l.x_pu)) for l in lines]
    return LoadFlowProblem.from_tree(slack, edges, injections, base)


def numpy_fbs(problem, tolerance=1e-8, max_iter=50):
    """The forward-backward sweep on numpy arrays, one bus at a time."""
    n = len(problem.bus_ids)
    parent = np.asarray(problem.parent, dtype=int)
    z = np.asarray(problem.z_pu, dtype=complex)
    s = np.asarray(problem.s_pu, dtype=complex)

    v = np.full(n, complex(problem.slack_voltage))
    converged = False
    iterations = 0
    i_branch = np.zeros(n, dtype=complex)
    with np.errstate(all="ignore"):
        for iterations in range(1, max_iter + 1):
            v_prev = v.copy()
            safe_v = np.where(np.abs(v) < 1e-9, 1.0, v)
            i_branch = np.conj(s / safe_v)
            for i in range(n - 1, 0, -1):
                i_branch[parent[i]] += i_branch[i]
            v[0] = problem.slack_voltage
            for i in range(1, n):
                v[i] = v[parent[i]] - z[i] * i_branch[i]
            if np.max(np.abs(v - v_prev)) < tolerance:
                converged = True
                break

        base = problem.base_mva
        flow_mw = {}
        for i in range(1, n):
            s_send = v[parent[i]] * np.conj(i_branch[i]) * base
            flow_mw[problem.line_ids[i]] = float(s_send.real)
        losses = float(np.sum(np.abs(i_branch[1:]) ** 2 * z[1:].real) * base)
        s_slack = v[0] * np.conj(i_branch[0]) * base
    return LoadFlowSolution(
        voltage_pu={b: float(abs(v[i])) for i, b in enumerate(problem.bus_ids)},
        line_flow_mw=flow_mw,
        losses_mw=losses,
        slack_mw=float(s_slack.real),
        iterations=iterations,
        converged=converged,
    )


def reference_state(topology, failed, open_switches, eps=1e-9):
    """The sub-systems of the switching state (failed lines, open
    disconnectors) of a `TopologyCache`, each as a dict of its `Subsystem`
    fields, compiled from scratch: each breaker by a search from its root,
    the conducting lines by scanning every line, the buses by
    `connected_components`, the units and an island's batteries by scanning
    every one (a grid-fed sub-system's idle and are left out), its tree by a
    breadth-first walk of its lines from its top bus, and whether it is
    steady by summing a grid-fed one's demand bounds up that tree."""
    model = topology.model

    def root_sees_fault(root):
        seen, stack = {root}, [root]
        while stack:
            bus = stack.pop()
            for line_id, other in model.adjacency[bus]:
                if any(s in open_switches for s in model.line_switches[line_id]):
                    continue
                if line_id in failed:
                    return True
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return False

    closed = {s: s not in open_switches for s in model.switchgear}
    for dsys in model.distribution_systems:
        closed[model.breaker_of_system[dsys.id]] = not root_sees_fault(dsys.root_bus)
    conducting = [line for line in model.lines.values()
                  if model.line_conducts(line.id, closed, failed)]
    subsystems = []
    for comp in connected_components(model, closed, failed):
        lines = tuple(line for line in conducting if line.from_bus in comp)
        feeders = [d for d in model.distribution_systems
                   if d.root_bus in comp and closed[model.breaker_of_system[d.id]]]
        units = tuple((u.id, u.bus, u.min_mw) for u in sorted(
            model.production.values(), key=lambda u: (u.bus, u.id)) if u.bus in comp)
        batteries = tuple(sorted(((bat.bus, bat) for bat in model.batteries.values()
                                  if bat.bus in comp), key=lambda pair: pair[0]))
        adj = {}
        for line in lines:
            adj.setdefault(line.from_bus, []).append((line.to_bus, line))
            adj.setdefault(line.to_bus, []).append((line.from_bus, line))
        # a breadth-first walk of its lines from its grid bus, or else from its
        # bus that the feeder walks reach first
        top = feeders[0].root_bus if feeders else next(
            b for b in model.tree_order if b in comp)
        children = {b: [] for b in comp}
        order, tree, seen = [top], [], {top}
        for bus in order:
            for other, line in adj.get(bus, ()):
                if other not in seen:
                    seen.add(other)
                    children[bus].append(other)
                    tree.append((other, bus, line))
                    order.append(other)
        sub = {"buses": comp, "grid_bus": None, "grid_limit": 0.0, "lines": lines,
               "tree": tuple(tree), "units": units,
               "batteries": batteries, "steady": not (units or batteries)}
        subsystems.append(sub)
        if not feeders:
            continue
        grid_limit = model.feeder_capacity[feeders[0].id]
        bound = {b: topology.bound.get(b, 0.0) for b in comp}
        for bus in reversed(order):
            for child in children[bus]:
                bound[bus] += bound[child]
        sub.update(grid_bus=top, grid_limit=grid_limit, batteries=(), steady=(
            grid_limit > eps
            and sum(topology.bound.get(b, 0.0) for b in comp) <= grid_limit + eps
            and not any(bound[b] > line.capacity_mw + eps for b, _, line in tree)))
    return subsystems


def reference_isolation(model, line_id):
    """Buses that stay dark for the whole repair of a fault on `line_id`, by
    the closed form's former rule: the components with the section's
    boundary disconnectors open, less each feeder root's component, whose
    breaker recloses as long as the failed line is not inside it."""
    switch_closed = dict.fromkeys(model.sections[line_id], False)
    components = connected_components(model, switch_closed, failed_lines={line_id})
    energized = set()
    by_bus = {}
    for comp in components:
        for b in comp:
            by_bus[b] = comp
    for dsys in model.distribution_systems:
        comp = by_bus.get(dsys.root_bus, ())
        if line_id not in {l for l in model.line_ids
                           if model.lines[l].from_bus in comp
                           and model.lines[l].to_bus in comp}:
            energized.update(comp)
    return frozenset(b for b in model.bus_ids if b not in energized)


def reference_forest(model):
    """The feeder forest, breakers and topology violations of a
    `NetworkModel` built without validation, by the model's former rules:
    each feeder walked breadth first over an adjacency of the normally
    closed lines alone, the breakers scanned once per feeder and again for
    the checks, and radiality judged by counting lines. Returns a dict of
    the model's forest attributes and `violations`, in the order
    `build_network` reports them."""
    adj = {b: [] for b in model.bus_ids}
    for line in model.lines.values():
        if line.id not in model.normally_open_lines:
            adj[line.from_bus].append((line.id, line.to_bus))
            adj[line.to_bus].append((line.id, line.from_bus))
    for lst in adj.values():
        lst.sort()
    system_of_bus, tree_parent, feed_line, order, tree_lines = {}, {}, {}, [], set()
    for dsys in model.distribution_systems:
        root = dsys.root_bus
        system_of_bus[root] = dsys.id
        tree_parent[root] = feed_line[root] = None
        feeder, seen = [root], {root}
        for bus in feeder:
            for line_id, other in adj[bus]:
                if other not in seen:
                    seen.add(other)
                    system_of_bus[other] = dsys.id
                    tree_parent[other], feed_line[other] = bus, line_id
                    tree_lines.add(line_id)
                    feeder.append(other)
        order += feeder
    breakers = [s for s in model.switchgear.values() if s.kind == "breaker"]
    breaker_of_system = {}
    for dsys in model.distribution_systems:
        for sw in breakers:
            host = model.lines[sw.host_line]
            if dsys.root_bus in (host.from_bus, host.to_bus):
                breaker_of_system[dsys.id] = sw.id

    violations = []
    orphans = [b for b in model.bus_ids if b not in system_of_bus]
    if orphans:
        violations.append("buses not fed by any distribution system "
                          f"(normally closed path to a root missing): {', '.join(orphans)}")
    closed_lines = [l for l in model.line_ids if l not in model.normally_open_lines
                    and model.lines[l].from_bus in system_of_bus]
    n_roots = len(model.distribution_systems)
    if len(closed_lines) != len(tree_lines) or len(tree_lines) != len(system_of_bus) - n_roots:
        violations.append("normally closed lines contain a cycle or join two feeders: "
                          "radial operation requires a tree per distribution system")
    violations += [f"distribution system {d.id!r} has no circuit breaker at its root"
                   for d in model.distribution_systems if d.id not in breaker_of_system]
    by_system = {}
    for sw in breakers:
        host = model.lines[sw.host_line]
        for dsys in model.distribution_systems:
            if dsys.root_bus in (host.from_bus, host.to_bus):
                by_system.setdefault(dsys.id, []).append(sw.id)
    violations += [f"distribution system {sys_id!r} has more than one circuit breaker"
                   for sys_id, found in by_system.items() if len(found) > 1]
    return {"tree_order": tuple(order), "tree_parent": tree_parent, "feed_line": feed_line,
            "system_of_bus": system_of_bus, "breaker_of_system": breaker_of_system,
            "violations": violations}


def reference_skeleton(node_ids, shed_cost, lines=(), tree=None):
    """`shedding.compile_skeleton`'s fields, built as it built them before
    each part became one comprehension: the named tuples through their
    constructor, and a given tree mapped onto indices before its direction
    is added."""
    ids = tuple(node_ids)
    index = {b: i for i, b in enumerate(ids)}
    costs = tuple(float(shed_cost.get(b, 0.0)) for b in ids)
    line_vars = tuple(LineVar(l[0], index[l[1]], index[l[2]], float(l[3])) for l in lines)
    assert all(l.from_node != l.to_node for l in line_vars)
    if tree is not None:
        at = {l.id: j for j, l in enumerate(line_vars)}
        tree = [(index[m], index[k], at[l]) for m, k, l in tree]
    else:
        try:
            bfs = LoadFlowProblem.from_tree(
                0, [(j, l.from_node, l.to_node, 0) for j, l in enumerate(line_vars)], {})
            order = bfs.bus_ids
            if len(order) == len(ids):
                tree = [(order[i], order[bfs.parent[i]], bfs.line_ids[i])
                        for i in range(1, len(ids))]
        except NonRadialError:
            pass
    if tree is not None:
        tree = tuple((m, k, j, line_vars[j].from_node == k) for m, k, j in reversed(tree))
    n = len(costs)
    eps = 1e-9 * (1.0 + max(map(abs, costs), default=0.0))
    value = tuple(c + eps * ((n - k) / n) for k, c in enumerate(costs))
    return ShedSkeleton(ids, index, costs, line_vars, value,
                        tuple(sorted(range(n), key=value.__getitem__, reverse=True)),
                        tree, min((l.capacity_mw for l in line_vars), default=math.inf))


def reference_subsystem(topology, order, grid_bus, eps=1e-9):
    """The fields of the sub-system that `split` gives as (`order`,
    `grid_bus`) in a `TopologyCache`, compiled as the engine compiled them
    before it gathered per-run rows: its tree and lines from the model's
    parent and feed-line maps, its lines sorted by a key, its units and an
    island's batteries by looking each of its buses up, steady by summing a
    grid-fed one's demand bounds up its tree, and, unless steady, its
    skeleton by `reference_skeleton` and, where it has lines, its load-flow
    totals."""
    model = topology.model
    comp = tuple(sorted(order))
    tree = tuple((b, model.tree_parent[b], model.lines[model.feed_line[b]]) for b in order[1:])
    lines = tuple(sorted((l for _, _, l in tree), key=lambda l: l.id))
    units = tuple((u, b, model.production[u].min_mw)
                  for b in comp for u in model.production_of_bus[b])
    if grid_bus is None:
        grid_limit = 0.0
        batteries = tuple((b, model.batteries[model.battery_of_bus[b]])
                          for b in comp if b in model.battery_of_bus)
        steady = not (units or batteries)
    else:
        grid_limit, batteries = model.feeder_capacity[model.system_of_bus[grid_bus]], ()
        demand = {b: topology.bound.get(b, 0.0) for b in comp}
        steady = grid_limit > eps and sum(demand.values()) <= grid_limit + eps
        for bus, parent, _ in reversed(tree):
            demand[parent] += demand[bus]
        steady = steady and all(demand[b] <= line.capacity_mw + eps for b, _, line in tree)
    return {
        "buses": comp, "grid_bus": grid_bus, "grid_limit": grid_limit, "lines": lines,
        "tree": tree, "units": units, "batteries": batteries, "steady": steady,
        "shedding": None if steady else reference_skeleton(
            comp, topology.shed_cost,
            [(l.id, l.from_bus, l.to_bus, l.capacity_mw * 1.0) for l in lines],
            tree=[(b, p, l.id) for b, p, l in tree]),
        "totals": None if steady or not lines else compile_totals(
            [complex(l.r_pu, l.x_pu) for l in lines], [l.capacity_mw for l in lines],
            model.base_mva, SLACK_VOLTAGE),
    }
