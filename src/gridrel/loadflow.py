"""Forward-backward sweep load flow for one radial sub-system.

The sweep avoids Jacobian factorization entirely: branch currents are
accumulated from the leaves toward the slack bus, voltages are then pushed
from the slack outward, and the two sweeps repeat until the voltage update
falls below tolerance. Loads are constant power; injections are given as
net consumption (demand minus local generation and battery discharge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def solve_fbs(problem: LoadFlowProblem, tolerance: float = 1e-8,
              max_iter: int = 50) -> LoadFlowSolution:
    """Run the sweep. Never raises on non-convergence; check `converged`."""
    n = len(problem.bus_ids)
    parent = np.asarray(problem.parent, dtype=int)
    z = np.asarray(problem.z_pu, dtype=complex)
    s = np.asarray(problem.s_pu, dtype=complex)

    v = np.full(n, complex(problem.slack_voltage))
    converged = False
    iterations = 0
    i_branch = np.zeros(n, dtype=complex)
    for iterations in range(1, max_iter + 1):
        v_prev = v.copy()
        safe_v = np.where(np.abs(v) < 1e-9, 1.0, v)
        i_branch = np.conj(s / safe_v)
        # backward: fold each bus's current into its parent branch
        for i in range(n - 1, 0, -1):
            i_branch[parent[i]] += i_branch[i]
        # forward: push voltages out from the slack
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
    s_slack = v[0] * np.conj(i_branch[0]) * base if n else 0j

    return LoadFlowSolution(
        voltage_pu={b: float(abs(v[i])) for i, b in enumerate(problem.bus_ids)},
        line_flow_mw=flow_mw,
        losses_mw=losses,
        slack_mw=float(s_slack.real),
        iterations=iterations,
        converged=converged,
    )
