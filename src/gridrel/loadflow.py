"""Forward-backward sweep load flow for one radial sub-system.

The sweep avoids Jacobian factorization entirely: branch currents are
accumulated from the leaves toward the slack bus, voltages are then pushed
from the slack outward, and the two sweeps repeat until the voltage update
falls below tolerance. Loads are constant power; injections are given as
net consumption (demand minus local generation and battery discharge).

The layout of a problem (BFS bus order, parents, line ids, impedances)
depends only on the lines and the slack bus, so a caller that solves one
sub-system many times builds it once with `from_tree` and, per sweep,
replaces its injections (`dataclasses.replace(layout, s_pu=...)`). The sweep
runs on Python complex lists: a sub-system has tens of buses, too few for
array operations to pay for their per-call overhead.

`certified_voltage` shows from the injections, in layout order, that a sweep
cannot act, reading the rest from the layout's `compile_certificate`. With
W_l the sum of |s_j| below line l and zeta the largest sum of |z_l| W_l /
|V0|^2 on a path from the slack, zeta < 1/4 keeps |v| >= r |V0| with
r = (1 + sqrt(1 - 4 zeta)) / 2 and the k-th update under L^(k-1) zeta |V0|,
L = zeta / r^2 (Chiang and Baran, IEEE TCAS 1990; Bolognani and Zampieri,
IEEE TPWRS 2016). Converged, line l sends |P| <= |P_l| + the sum over its
subtree of r_m (W_m / r |V0|)^2 + W_l tol / (r |V0|), P_l the lossless flow,
and the balance residual is at most base W_root tol / (r |V0|).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, sqrt


class NonRadialError(ValueError):
    """The buses/lines handed to the solver do not form a rooted tree."""


@dataclass(frozen=True)
class LoadFlowProblem:
    """A rooted subtree in BFS order (slack first, parents before children).

    `parent[i]` is the index of bus i's parent (-1 for the slack),
    `z_pu[i]` the impedance of the line feeding bus i, `line_ids[i]` its id,
    and `s_pu[i]` the complex net consumption at bus i in per unit.
    """

    bus_ids: tuple
    parent: tuple
    line_ids: tuple
    z_pu: tuple
    s_pu: tuple
    base_mva: float = 10.0
    slack_voltage: float = 1.0

    @classmethod
    def from_tree(cls, slack, edges, injections_pu, base_mva=10.0, slack_voltage=1.0):
        """Build the BFS ordering from edges (line_id, bus_a, bus_b, z_pu).

        Children are visited in bus-id order so the layout is deterministic.
        """
        adj = {}
        for line_id, a, b, z in edges:
            adj.setdefault(a, []).append((b, line_id, z))
            adj.setdefault(b, []).append((a, line_id, z))
        for lst in adj.values():
            lst.sort(key=lambda t: t[0])
        if slack not in adj and edges:
            raise NonRadialError(f"slack bus {slack!r} not in the subtree")

        order = [slack]
        parent = [-1]
        line_ids = [None]
        z_list = [0j]
        index = {slack: 0}
        seen_lines = set()
        cursor = 0
        while cursor < len(order):
            bus = order[cursor]
            for other, line_id, z in adj.get(bus, ()):
                if line_id in seen_lines:
                    continue
                seen_lines.add(line_id)
                if other in index:
                    raise NonRadialError(f"cycle through line {line_id!r}")
                index[other] = len(order)
                order.append(other)
                parent.append(index[bus])
                line_ids.append(line_id)
                z_list.append(complex(z))
            cursor += 1
        if len(seen_lines) != len(edges):
            raise NonRadialError("edges not reachable from the slack bus")

        s = [complex(injections_pu.get(b, 0.0)) for b in order]
        return cls(tuple(order), tuple(parent), tuple(line_ids), tuple(z_list),
                   tuple(s), base_mva, slack_voltage)


@dataclass(frozen=True)
class LoadFlowSolution:
    voltage_pu: dict            # bus id -> |V| in p.u.
    line_flow_mw: dict          # line id -> sending-end P, positive toward the child
    losses_mw: float
    slack_mw: float
    iterations: int
    converged: bool


def _magnitudes(values) -> list:
    """|x| of each complex value. Python's `abs` takes it with `hypot`, as
    numpy does, but raises past the float range, where this reads inf."""
    try:
        return [abs(x) for x in values]
    except OverflowError:
        return [hypot(x.real, x.imag) for x in values]


def solve_fbs(problem: LoadFlowProblem, tolerance: float = 1e-8,
              max_iter: int = 50) -> LoadFlowSolution:
    """Run the sweep. Never raises on non-convergence; check `converged`."""
    n = len(problem.bus_ids)
    parent, z, s = problem.parent, problem.z_pu, problem.s_pu
    v_slack = complex(problem.slack_voltage)
    below = tuple(zip(range(1, n), parent[1:], z[1:]))  # (bus, parent, z) in BFS order

    v = [v_slack] * n
    converged = False
    iterations = 0
    i_branch = [0j] * n
    for iterations in range(1, max_iter + 1):
        v_prev = v
        i_branch = [(si / (1.0 if m < 1e-9 else vi)).conjugate()
                    for si, vi, m in zip(s, v, _magnitudes(v))]
        # backward: fold each bus's current into its parent branch
        for i in range(n - 1, 0, -1):
            i_branch[parent[i]] += i_branch[i]
        # forward: push voltages out from the slack
        v = [v_slack] * n
        for i, p, zi in below:
            v[i] = v[p] - zi * i_branch[i]
        # all(), not max(): a NaN update must never read as converged
        if all(m < tolerance for m in _magnitudes([a - b for a, b in zip(v, v_prev)])):
            converged = True
            break

    base = problem.base_mva
    flow_mw = {problem.line_ids[i]: (v[p] * i_branch[i].conjugate() * base).real
               for i, p, _ in below}
    currents = _magnitudes(i_branch[1:])
    losses = sum(m * m * zi.real for m, zi in zip(currents, z[1:])) * base
    s_slack = v[0] * i_branch[0].conjugate() * base

    return LoadFlowSolution(
        voltage_pu=dict(zip(problem.bus_ids, _magnitudes(v))),
        line_flow_mw=flow_mw,
        losses_mw=losses,
        slack_mw=s_slack.real,
        iterations=iterations,
        converged=converged,
    )


def compile_certificate(problem: LoadFlowProblem, capacity_mw) -> tuple:
    """`certified_voltage`'s fixed part: (base MVA, slack voltage, (bus, parent,
    |z|, r, capacity in p.u.) per line below the slack in BFS order)."""
    return problem.base_mva, problem.slack_voltage, tuple(
        (i, problem.parent[i], abs(z), z.real, capacity_mw[line] / problem.base_mva)
        for i, (line, z) in enumerate(zip(problem.line_ids, problem.z_pu)) if i)


def certified_voltage(s, certificate, tolerance=1e-8, max_iter=50):
    """r when the bounds above show, with margin, that `solve_fbs` converges in
    `max_iter` with |P| <= 1.01 x capacity and residual < 1e-4 MW, else None,
    for net injections `s` in p.u. in the order of the certificate's layout."""
    base_mva, slack_voltage, lines = certificate
    v0 = abs(slack_voltage)
    w, p, q, path = [abs(x) for x in s], [x.real for x in s], [0.0] * len(s), [0.0] * len(s)
    for i, j, _, res, _ in reversed(lines):  # q: the sum of r_m W_m^2 over a subtree
        q[i] += res * w[i] * w[i]
        w[j], p[j], q[j] = w[j] + w[i], p[j] + p[i], q[j] + q[i]
    for i, j, mag, _, _ in lines:
        path[i] = path[j] + mag * w[i]
    zeta = max(path) / (v0 * v0)  # NaN fails every test below
    r = (1.0 + sqrt(max(1.0 - 4.0 * zeta, 0.0))) / 2.0
    rv = r * v0
    return r if (zeta < 0.25 and zeta * v0 * (zeta / (r * r)) ** (max_iter - 1) <= tolerance / 2
                 and base_mva * w[0] * tolerance / rv <= 0.5e-4
                 and all(abs(p[i]) + q[i] / (rv * rv) + w[i] * tolerance / rv <= 1.0099 * cap
                         for i, _, _, _, cap in lines)) else None
