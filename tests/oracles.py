"""Independent reference implementations used only to check the package.

These deliberately share no code with the solvers under test: the AC oracle
is a damped Newton on the full complex power equations with a finite
difference Jacobian, the LP oracle is scipy's HiGHS, the topology
oracles rescan every line of the model for each question they answer, and
the phase oracles step a float countdown by one increment at a time.
"""

import numpy as np
from scipy.optimize import linprog


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
