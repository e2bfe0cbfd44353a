"""Sequential Monte Carlo simulation driver.

Each iteration advances the system over a fixed increment grid. Per
increment: loads and production come from the profiles, component failures
are drawn, faults are sectioned and isolated by the switchgear, the network
decomposes into sub-systems, each energized sub-system gets battery dispatch
+ load flow + cost-minimal shedding, and the history ledger accrues
interruptions, outage hours and energy not supplied.

Healthy increments change nothing, so the driver skips straight to the next
scheduled failure; the stochastic draw uses the geometric distribution of
the first Bernoulli success, which is distribution-identical to drawing
every increment. Sectioning and repair phases last whole increments
(floor(duration / dt)); sub-increment residue is dropped, so with an hourly
increment the seconds-to-minutes ICT recoveries are invisible, and outage
durations are exact when the configured times are increment multiples.

Component health is stored once, as the increment at which the current
phase ends, worked out when the phase starts. A line fault keeps its phase
(sectioning or repairing) and that end; a transformer or ICT repair keeps
its end in `repairs`, keyed (kind, id); a latent ICT failure is a member of
`latent` until a sectioning plan calls on the unit. A component with no
entry is working. Ends are completed at the start of their increment: lines
by id, then transformers by id, then ICT units by id, and each completion
draws that component's next failure.

The breaker positions, sub-systems and their conducting lines follow from
the switching state alone, i.e. from (failed lines, open disconnectors), so
each distinct state is compiled once per run into a `TopologyCache` and
every later increment in that state looks it up.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import shedding as shed
from .loadflow import LoadFlowProblem, NonRadialError, solve_fbs
from .network import BREAKER, NetworkModel, connected_components
from .stochastic import (  # draw_status stays importable: perfbench wraps it here
    draw_battery_soc, draw_status, failure_probability, ict_repair_duration,
    plan_sectioning,
)

_EPS = 1e-9

IDLE = "idle"
CHARGE = "charge"
DISCHARGE = "discharge"

# ledger warning kinds, each with the text its messages carry
WARNING_KINDS = (
    ("shedding infeasible", "shedding infeasible"),
    ("load flow non-converged", "load flow did not converge"),
    ("power balance", "power balance residual"),
    ("load flow skipped", "load flow skipped"),
)


@dataclass
class SimulationConfig:
    increment_h: float = 1.0
    horizon_h: float = 8760.0
    iterations: int = 1
    master_seed: int = 0
    automated_sectioning_h: float = 5.0 / 60.0
    manual_sectioning_h: float = 1.0
    worker_count: int = 1
    loadflow_tolerance: float = 1e-8
    loadflow_max_iter: int = 50

    def __post_init__(self):
        if self.increment_h <= 0 or self.horizon_h <= 0:
            raise ValueError("increment and horizon must be > 0")
        n = self.horizon_h / self.increment_h
        if abs(n - round(n)) > 1e-9:
            raise ValueError("increment must divide the horizon")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.worker_count < 1:
            raise ValueError("need at least one worker")

    @property
    def n_increments(self) -> int:
        return int(round(self.horizon_h / self.increment_h))


@dataclass(frozen=True)
class ScriptedFault:
    """Deterministic replacement for stochastic draws (verification mode)."""

    time_h: float
    component_id: str  # line id, bus id (transformer), or ICT component id


@dataclass
class HistoryLedger:
    """Per-load-point and per-system accumulators for one iteration."""

    load_points: tuple
    customers: dict
    categories: dict
    horizon_h: float
    increment_h: float
    interruptions: dict = field(default_factory=dict)
    outage_hours: dict = field(default_factory=dict)
    ens_mwh: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        for b in self.load_points:
            self.interruptions.setdefault(b, 0.0)
            self.outage_hours.setdefault(b, 0.0)
            self.ens_mwh.setdefault(b, 0.0)

    @property
    def total_ens_mwh(self) -> float:
        return sum(self.ens_mwh.values())

    @property
    def total_customers(self) -> int:
        return sum(self.customers.values())


def phase_increments(duration_h: float, dt_h: float) -> int:
    """Whole increments a phase lasts: floor(duration / dt), a duration
    within _EPS of a multiple of dt counting as that multiple."""
    return math.floor((duration_h + _EPS) / dt_h)


def ends_silently(duration_h: float, dt_h: float) -> bool:
    """Whether a transformer or ICT repair of this duration ends unreported.

    A repair lasting a whole number n >= 1 of increments ends after the
    evaluation of its last down increment without a `*_repaired` event or a
    next failure draw. This is a known defect, kept because fixing it
    changes the benchmark's reference results; ROADMAP item 4 records it.
    """
    n = phase_increments(duration_h, dt_h)
    return n >= 1 and duration_h <= n * dt_h + _EPS


class _LineFault:
    __slots__ = ("line_id", "phase", "end", "boundary")

    def __init__(self, line_id, end, boundary):
        self.line_id = line_id
        self.phase = "sectioning"
        self.end = end  # increment at which the current phase ends
        self.boundary = boundary


@dataclass(frozen=True)
class Subsystem:
    """One connected component of a switching state."""

    buses: tuple          # sorted, as `connected_components` returns them
    grid_bus: Optional[str]  # root of the first closed feeder inside, if any
    grid_limit: float
    lines: tuple          # conducting lines inside, in model line order
    subtree_sums: tuple   # (bus, child) additions in reversed BFS order from the root
    feed_limits: tuple    # (bus, feed-line capacity + eps) in BFS order below the root

    def grid_flows_within_caps(self, live_demand) -> bool:
        """Check the lossless radial flows of serving everything from the grid."""
        subtree = {b: live_demand.get(b, 0.0) for b in self.buses}
        for bus, child in self.subtree_sums:
            subtree[bus] += subtree[child]
        return not any(subtree[bus] > limit for bus, limit in self.feed_limits)


@dataclass(frozen=True)
class SwitchingState:
    breakers: tuple       # (breaker id, closed) per distribution system
    subsystems: tuple     # Subsystem per connected component, by lowest bus id


class TopologyCache:
    """Lookups one Monte Carlo run derives from its model and increment.

    Switching states are keyed by (failed lines, open non-breaker switches)
    and compiled on first use; breaker positions are part of the compiled
    state, not of the key. The cache also holds every failable component's
    per-increment failure probability and the ICT devices by id. It lives as
    long as the run that creates it, so nothing outlives the model.
    """

    def __init__(self, model: NetworkModel, increment_h: float):
        self.model = model
        self.increment_h = increment_h
        self.hits = 0
        self.misses = 0
        self._states = {}
        self._disconnectors = tuple(s.id for s in model.switchgear.values()
                                    if s.kind != BREAKER)
        ict = model.ict
        params = {("line", l.id): l.reliability for l in model.lines.values()}
        params.update((("transformer", b.id), b.transformer)
                      for b in model.buses.values() if b.transformer is not None)
        if ict.controller is not None:
            params[("ict", ict.controller.id + "/hw")] = ict.controller.hardware
            params[("ict", ict.controller.id + "/sw")] = ict.controller.software
        for device in (*ict.sensors, *ict.intelligent_switches):
            params.setdefault(("ict", device.id), device.reliability)
        # in key order, which is the order of the initial failure draws
        self.failure_p = {key: failure_probability(r.failure_rate, increment_h)
                          for key, r in sorted(params.items()) if r.can_fail}
        self.sensors = {s.id: s for s in ict.sensors}
        self.int_switches = {i.id: i for i in ict.intelligent_switches}
        self.ict_ids = frozenset(ident for kind, ident in params if kind == "ict")

    def state(self, failed_lines, switch_closed) -> SwitchingState:
        key = (frozenset(failed_lines),
               frozenset(s for s in self._disconnectors if not switch_closed[s]))
        entry = self._states.get(key)
        if entry is None:
            self.misses += 1
            entry = self._states[key] = self._compile(*key)
        else:
            self.hits += 1
        return entry

    def _compile(self, failed, open_switches) -> SwitchingState:
        model = self.model
        breakers = {}
        for dsys in model.distribution_systems:
            # a feeder breaker stays open while its root would feed a fault
            breakers[model.breaker_of_system[dsys.id]] = not self._root_sees_fault(
                dsys.root_bus, failed, open_switches)
        closed = {s: s not in open_switches for s in model.switchgear}
        closed.update(breakers)
        components = connected_components(model, closed, failed)
        comp_of = {b: i for i, comp in enumerate(components) for b in comp}
        lines_in = [[] for _ in components]
        for line in model.lines.values():
            if model.line_conducts(line.id, closed, failed):
                lines_in[comp_of[line.from_bus]].append(line)
        return SwitchingState(
            tuple(breakers.items()),
            tuple(self._subsystem(comp, tuple(lines), closed)
                  for comp, lines in zip(components, lines_in)))

    def _root_sees_fault(self, root, failed, open_switches) -> bool:
        """Search from the root over lines whose switches are closed, breakers
        counting as closed, for a failed line."""
        seen = {root}
        stack = [root]
        while stack:
            bus = stack.pop()
            for line_id, other in self.model.adjacency[bus]:
                if any(s in open_switches for s in self.model.line_switches[line_id]):
                    continue
                if line_id in failed:
                    return True
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return False

    def _subsystem(self, comp, lines, closed) -> Subsystem:
        model = self.model
        grid_bus, grid_limit = None, 0.0
        for dsys in model.distribution_systems:
            if dsys.root_bus in comp and closed[model.breaker_of_system[dsys.id]]:
                grid_bus, grid_limit = dsys.root_bus, model.feeder_capacity[dsys.id]
                break
        if grid_bus is None:
            return Subsystem(comp, None, 0.0, lines, (), ())
        adj = {}
        for line in lines:
            adj.setdefault(line.from_bus, []).append((line.to_bus, line))
            adj.setdefault(line.to_bus, []).append((line.from_bus, line))
        children = {b: [] for b in comp}
        feed_limit = {grid_bus: None}
        order = [grid_bus]
        for bus in order:  # breadth first: `order` grows while it is walked
            for other, line in adj.get(bus, ()):
                if other not in feed_limit:
                    children[bus].append(other)
                    feed_limit[other] = line.capacity_mw + _EPS
                    order.append(other)
        return Subsystem(
            comp, grid_bus, grid_limit, lines,
            tuple((bus, child) for bus in reversed(order) for child in children[bus]),
            tuple((bus, feed_limit[bus]) for bus in order[1:]))


class SequentialSimulation:
    """Mutable runtime for one iteration; `run()` drives it to the horizon."""

    def __init__(self, model: NetworkModel, profiles, config: SimulationConfig,
                 rng, script: Optional[list] = None, cost_table=None,
                 topology: Optional[TopologyCache] = None):
        if topology is None:
            topology = TopologyCache(model, config.increment_h)
        elif topology.model is not model or topology.increment_h != config.increment_h:
            raise ValueError("topology cache belongs to another model or increment")
        self.topology = topology
        self.model = model
        self.profiles = profiles
        self.config = config
        self.rng = rng
        self.cost_table = dict(cost_table or {})
        self.dt = config.increment_h
        self.t_index = 0

        self.switch_closed = model.normal_switch_states()
        self.faults = {}   # line id -> _LineFault
        self.repairs = {}  # ("transformer" | "ict", id) -> (end increment, reported)
        self.latent = set()  # ICT ids failed silently and not yet called upon
        self.soc = {b_id: draw_battery_soc(bat, rng)
                    for b_id, bat in sorted(model.batteries.items())}
        self.was_islanded = {b_id: False for b_id in model.batteries}
        self.was_out = {b: False for b in model.load_points}

        self.ledger = HistoryLedger(
            load_points=model.load_points,
            customers={b: model.buses[b].customers for b in model.load_points},
            categories={b: (model.buses[b].load.category if model.buses[b].load else "general")
                        for b in model.load_points},
            horizon_h=config.horizon_h,
            increment_h=config.increment_h,
        )

        self.scripted = script is not None
        self.schedule = {}  # component key -> increment index of next failure
        if self.scripted:
            for ev in script:
                idx = int(ev.time_h / self.dt + 1e-9)
                self.schedule.setdefault(idx, []).append(ev.component_id)
        else:
            for key in topology.failure_p:
                self._schedule_next(key, 0)

    # -- failure scheduling ------------------------------------------------

    def _schedule_next(self, key, from_index):
        """First failure increment at or after `from_index` for a working component."""
        p = self.topology.failure_p[key]
        if p <= 0.0:
            return
        k = int(self.rng.geometric(p))  # trials until first success, >= 1
        idx = from_index + k - 1
        if idx < self.config.n_increments:
            self.schedule.setdefault(idx, []).append(key)

    # -- driving -----------------------------------------------------------

    def run(self) -> HistoryLedger:
        n = self.config.n_increments
        while self.t_index < n:
            if not self._anything_active():
                pending = [i for i in self.schedule if i >= self.t_index]
                if not pending:
                    break
                self.t_index = min(pending)
            self.run_increment()
        return self.ledger

    def _anything_active(self) -> bool:
        return bool(self.faults or self.repairs) or self.t_index in self.schedule

    def run_increment(self):
        """Execute one increment of the procedure and advance time."""
        t = self.t_index
        self._process_new_failures(t)
        self._apply_transitions(t)
        state = self.topology.state(self.faults, self.switch_closed)
        self.switch_closed.update(state.breakers)

        if self._electrical_fault_active():
            self._evaluate_and_accrue(t, state)
        else:
            for b in self.was_out:
                self.was_out[b] = False
            for b_id in self.was_islanded:
                self.was_islanded[b_id] = False

        # unreported repairs end here, after their last down increment, and a
        # transformer's bus keeps its `was_out` (see `ends_silently`)
        for key in [k for k, (end, reported) in self.repairs.items()
                    if end == t + 1 and not reported]:
            del self.repairs[key]
        self.t_index += 1

    # -- failures and switching ---------------------------------------------

    def _process_new_failures(self, t):
        entries = self.schedule.pop(t, [])
        if not entries:
            return
        if self.scripted:
            keyed = []
            for ident in entries:
                if ident in self.model.lines:
                    keyed.append(("line", ident))
                elif ("transformer", ident) in self.topology.failure_p:
                    keyed.append(("transformer", ident))
                elif ident in self.topology.ict_ids:
                    keyed.append(("ict", ident))
                else:
                    self.ledger.warnings.append(
                        f"scripted fault on unknown component {ident!r}")
            entries = keyed
        for key in sorted(entries):
            self._fail_component(key, t)

    def _fail_component(self, key, t):
        kind, ident = key
        time_h = t * self.dt
        if kind == "line":
            if ident in self.faults:
                return
            plan = plan_sectioning(self.model, ident, self._ict_working(),
                                   self.config.automated_sectioning_h,
                                   self.config.manual_sectioning_h)
            self._discover_latent(plan, time_h)
            self.faults[ident] = _LineFault(
                ident, t + phase_increments(plan.duration_h, self.dt),
                self.model.sections[ident].boundary_disconnectors)
            self.ledger.events.append((time_h, ident, "line_fault"))
        elif kind == "transformer":
            if key in self.repairs:
                return
            self._start_repair(key, self.model.buses[ident].transformer.repair_time_h)
            self.ledger.events.append((time_h, ident, "transformer_fault"))
        else:
            self._fail_ict(ident, time_h)

    def _start_repair(self, key, duration_h):
        self.repairs[key] = (self.t_index + phase_increments(duration_h, self.dt),
                             not ends_silently(duration_h, self.dt))

    def _fail_ict(self, ident, time_h):
        key = ("ict", ident)
        if ident in self.latent or key in self.repairs:
            return
        ctrl = self.model.ict.controller
        if ctrl is not None and ident == ctrl.id + "/hw":
            self._start_repair(key, ctrl.hardware.repair_time_h)
            self.ledger.events.append((time_h, ident, "controller_hw_fault"))
        elif ctrl is not None and ident == ctrl.id + "/sw":
            duration, outcome = ict_repair_duration(ctrl.software_phases, self.rng)
            self._start_repair(key, duration)
            self.ledger.events.append((time_h, ident, f"controller_sw_fault:{outcome}"))
        else:
            # sensors and intelligent switches fail silently until called upon
            self.latent.add(ident)
            self.ledger.events.append((time_h, ident, "latent_ict_fault"))

    def _ict_working(self) -> dict:
        def working(ident):
            return ident not in self.latent and ("ict", ident) not in self.repairs

        status = {}
        ctrl = self.model.ict.controller
        if ctrl is not None:
            status[ctrl.id] = working(ctrl.id + "/hw") and working(ctrl.id + "/sw")
        for ident in (*self.topology.sensors, *self.topology.int_switches):
            status[ident] = working(ident)
        return status

    def _discover_latent(self, plan, time_h):
        """Latent ICT failures start their repair clock when first called upon."""
        sensors = self.topology.sensors
        switches = self.topology.int_switches
        for sid in plan.consulted_sensors:
            if sid in self.latent:
                self.latent.remove(sid)
                duration, outcome = ict_repair_duration(sensors[sid].phases, self.rng)
                self._start_repair(("ict", sid), duration)
                self.ledger.events.append((time_h, sid, f"latent_discovered:{outcome}"))
        for iid in plan.consulted_switches:
            if iid in self.latent:
                self.latent.remove(iid)
                self._start_repair(("ict", iid), switches[iid].reliability.repair_time_h)
                self.ledger.events.append((time_h, iid, "latent_discovered:manual"))

    def _apply_transitions(self, t):
        """Complete the phases that end at this increment."""
        time_h = t * self.dt
        for line_id in sorted(self.faults):
            fault = self.faults[line_id]
            if fault.end > t:
                continue
            if fault.phase == "sectioning":
                for disc in fault.boundary:
                    self.switch_closed[disc] = False
                repair = self.model.lines[line_id].reliability.repair_time_h
                fault.phase = "repairing"
                fault.end = t + phase_increments(repair, self.dt)
                self.ledger.events.append((time_h, line_id, "isolated"))
                # the repair may itself complete within this increment
                if fault.end == t:
                    self._restore_line(fault, time_h)
            else:
                self._restore_line(fault, time_h)

        due = [key for key, (end, _) in self.repairs.items() if end == t]
        # transformers by id, then ICT units by id
        for key in sorted(due, key=lambda k: (k[0] == "ict", k[1])):
            del self.repairs[key]
            self.ledger.events.append((time_h, key[1], f"{key[0]}_repaired"))
            self._schedule_after_repair(key)

    def _restore_line(self, fault, time_h):
        for disc in fault.boundary:
            self.switch_closed[disc] = self.model.switchgear[disc].normal_closed
        del self.faults[fault.line_id]
        self.ledger.events.append((time_h, fault.line_id, "line_repaired"))
        self._schedule_after_repair(("line", fault.line_id))

    def _schedule_after_repair(self, key):
        if not self.scripted:
            self._schedule_next(key, self.t_index + 1)

    def _electrical_fault_active(self) -> bool:
        return bool(self.faults) or any(kind == "transformer" for kind, _ in self.repairs)

    # -- electrical evaluation ----------------------------------------------

    def _demand_now(self, t):
        demand, demand_q = {}, {}
        for b in self.model.load_points:
            load = self.model.buses[b].load
            if load is None:
                demand[b] = 0.0
                demand_q[b] = 0.0
                continue
            mult = self.profiles.load_multiplier(load.profile, t)
            demand[b] = load.peak_mw * mult
            demand_q[b] = load.peak_mvar * mult
        return demand, demand_q

    def _evaluate_and_accrue(self, t, state):
        model = self.model
        dt = self.dt
        demand, demand_q = self._demand_now(t)

        served = {}
        islanded_now = dict.fromkeys(self.was_islanded, False)
        for sub in state.subsystems:
            self._serve_component(sub, t, demand, demand_q, served, islanded_now)
        self.was_islanded = islanded_now

        time_h = t * dt
        for b in model.load_points:
            d = demand.get(b, 0.0)
            s = served.get(b, 0.0)
            unsupplied = served.get(b) is None
            if unsupplied:
                s = 0.0
            shortfall = max(d - s, 0.0)
            if shortfall > _EPS:
                self.ledger.ens_mwh[b] += shortfall * dt
            fully_out = unsupplied or (d > _EPS and s <= _EPS)
            if fully_out:
                self.ledger.outage_hours[b] += dt
                if not self.was_out[b]:
                    self.ledger.interruptions[b] += 1.0
                    self.ledger.events.append((time_h, b, "interrupted"))
            self.was_out[b] = fully_out

    def _serve_component(self, sub, t, demand, demand_q, served, islanded_now):
        """Run dispatch + load flow + shedding for one sub-system.

        `served[bus]` is set to the supplied MW, or None when the bus has no
        energized path at all (disconnected or its transformer is down).
        """
        model = self.model
        comp = sub.buses
        tx_down = {b for b in comp if ("transformer", b) in self.repairs}

        grid_bus, grid_limit = sub.grid_bus, sub.grid_limit
        # a singleton root feeds nothing; islands must be driven by local sources
        generators = []
        if grid_bus is not None:
            generators.append((f"grid:{grid_bus}", grid_bus, 0.0, grid_limit, 0.0))

        production_cap = 0.0
        for b in comp:
            for unit_id in model.production_of_bus[b]:
                unit = model.production[unit_id]
                cap = unit.max_mw
                if unit.profile is not None:
                    prof = self.profiles.production_mw(unit.profile, t)
                    if prof is not None:
                        cap = min(cap, max(prof, 0.0))
                production_cap += cap
                generators.append((unit_id, b, min(unit.min_mw, cap), cap, 0.0))

        live_demand = {b: demand.get(b, 0.0) for b in comp if b not in tx_down}
        total_demand = sum(live_demand.values())

        batteries_here = [(b, model.battery_of_bus[b]) for b in comp
                          if b in model.battery_of_bus]
        grid_connected = grid_bus is not None
        for bus, bat_id in sorted(batteries_here):
            bat = model.batteries[bat_id]
            if not grid_connected:
                if not self.was_islanded[bat_id]:
                    # outage begins: market behavior collapses to a fresh SOC draw
                    self.soc[bat_id] = draw_battery_soc(bat, self.rng)
                islanded_now[bat_id] = True
            mode, bound = update_battery_demand(
                total_demand, production_cap, bat, self.soc[bat_id],
                self.dt, grid_connected)
            if mode == DISCHARGE and bound > _EPS:
                # faint merit-order cost: the battery backs up free production
                generators.append((bat_id, bus, 0.0, bound, 1e-7))
            elif mode == CHARGE and bound > _EPS:
                generators.append((bat_id, bus, -bound, 0.0, 1e-7))

        has_source = any(g[3] > _EPS or g[2] < -_EPS for g in generators)
        if not has_source:
            for b in comp:
                served[b] = None
            return
        if total_demand <= _EPS:
            for b in comp:
                served[b] = None if b in tx_down else demand.get(b, 0.0)
            return

        lines_here = sub.lines
        # Grid-connected sub-system whose pure-grid dispatch stays within every
        # limit: zero shed is optimal, skip the optimization and the sweep.
        if (grid_bus is not None and total_demand <= grid_limit + _EPS
                and sub.grid_flows_within_caps(live_demand)):
            for b in comp:
                served[b] = None if b in tx_down else demand.get(b, 0.0)
            return

        cost_of = {b: self._shed_cost(b) for b in comp}
        problem = shed.build_shedding_problem(
            comp, live_demand, cost_of, generators,
            [(l.id, l.from_bus, l.to_bus, l.capacity_mw) for l in lines_here])
        result = shed.solve_shedding(problem)
        if result.status != shed.OPTIMAL:
            self.ledger.warnings.append(
                f"t={t * self.dt:g}h: shedding infeasible in sub-system {comp[0]}")
            for b in comp:
                served[b] = None
            return

        # first entry wins for a repeated id
        gen_bus = {g[0]: g[1] for g in reversed(generators)}
        result = self._confirm_with_loadflow(comp, live_demand, demand_q, lines_here,
                                             generators, gen_bus, cost_of, grid_bus,
                                             result, t)

        for b in comp:
            if b in tx_down:
                served[b] = None
            else:
                served[b] = live_demand.get(b, 0.0) - result.shed_mw.get(b, 0.0)

        for bus, bat_id in batteries_here:
            dispatch = result.generation_mw.get(bat_id, 0.0)
            bat = model.batteries[bat_id]
            self.soc[bat_id] = min(max(
                self.soc[bat_id] - dispatch * self.dt / bat.capacity_mwh,
                bat.soc_min), bat.soc_max)

    def _shed_cost(self, bus_id) -> float:
        load = self.model.buses[bus_id].load
        if load is None:
            return 0.0
        return float(self.cost_table.get(load.category, 1.0))

    def _confirm_with_loadflow(self, comp, live_demand, demand_q, lines_here,
                               generators, gen_bus, cost_of, grid_bus, result, t):
        """Re-run the sweep with the shed applied; one repair pass on overload."""
        if len(comp) < 2 or not lines_here:
            return result
        slack = grid_bus
        if slack is None:
            # island slack: the bus carrying the largest source
            source_buses = sorted(
                {g[1] for g in generators if g[3] > _EPS},
                key=lambda b: (-max(g[3] for g in generators if g[1] == b), b))
            if not source_buses:
                return result
            slack = source_buses[0]

        solution = self._run_fbs(comp, live_demand, demand_q, lines_here,
                                 gen_bus, result, slack)
        if solution is None:
            return result
        if not solution.converged:
            self.ledger.warnings.append(
                f"t={t * self.dt:g}h: load flow did not converge in sub-system {comp[0]}")
            return result

        served_total = sum(live_demand.get(b, 0.0) - result.shed_mw.get(b, 0.0)
                           for b in comp)
        gen_total = solution.slack_mw + sum(
            gen for gid, gen in result.generation_mw.items()
            if gen_bus.get(gid) != slack)
        if abs(gen_total - solution.losses_mw - served_total) > 1e-4:
            self.ledger.warnings.append(
                f"t={t * self.dt:g}h: power balance residual "
                f"{gen_total - solution.losses_mw - served_total:.2e} MW "
                f"in sub-system {comp[0]}")

        worst = 0.0
        for line in lines_here:
            flow = abs(solution.line_flow_mw.get(line.id, 0.0))
            if flow > line.capacity_mw:
                worst = max(worst, flow / line.capacity_mw - 1.0)
        if worst <= 0.01:
            return result

        # one repair pass with a tightened capacity margin covering the overshoot
        margin = 1.0 / (1.0 + worst + 0.01)
        problem = shed.build_shedding_problem(
            comp, live_demand, cost_of, generators,
            [(l.id, l.from_bus, l.to_bus, l.capacity_mw * margin) for l in lines_here])
        retry = shed.solve_shedding(problem)
        if retry.status == shed.OPTIMAL:
            return retry
        return result

    def _run_fbs(self, comp, live_demand, demand_q, lines_here, gen_bus,
                 result, slack):
        base = self.model.base_mva
        injections = {}
        for b in comp:
            d = live_demand.get(b, 0.0) - result.shed_mw.get(b, 0.0)
            q = demand_q.get(b, 0.0)
            full = live_demand.get(b, 0.0)
            if full > _EPS:
                q *= d / full  # shed at constant power factor
            else:
                q = 0.0
            injections[b] = complex(d, q)
        for gen_id, output in result.generation_mw.items():
            bus = gen_bus.get(gen_id)
            if bus is not None and bus != slack:
                injections[bus] -= output  # unity power factor injection
        injections = {b: s / base for b, s in injections.items()}
        edges = [(l.id, l.from_bus, l.to_bus, complex(l.r_pu, l.x_pu))
                 for l in lines_here]
        try:
            problem = LoadFlowProblem.from_tree(slack, edges, injections, base)
        except NonRadialError as exc:
            self.ledger.warnings.append(f"load flow skipped: {exc}")
            return None
        return solve_fbs(problem, self.config.loadflow_tolerance,
                         self.config.loadflow_max_iter)


def update_battery_demand(subsystem_demand_mw, production_cap_mw, battery, soc,
                          dt_h, grid_connected):
    """Dispatch direction and MW bound for one battery this increment.

    Grid-connected batteries idle (their market behavior is captured by the
    per-outage uniform SOC draw). Islanded batteries discharge into a deficit
    or charge from a surplus, limited by the inverter and the energy headroom.
    """
    if grid_connected:
        return IDLE, 0.0
    deficit = subsystem_demand_mw - production_cap_mw
    if deficit > _EPS:
        bound = min(battery.inverter_mw,
                    max(soc - battery.soc_min, 0.0) * battery.capacity_mwh / dt_h)
        return DISCHARGE, max(bound, 0.0)
    surplus = -deficit
    bound = min(battery.inverter_mw,
                max(battery.soc_max - soc, 0.0) * battery.capacity_mwh / dt_h,
                surplus)
    return CHARGE, max(bound, 0.0)


def warning_counts(ledgers) -> dict:
    """Warnings of all ledgers by kind, in `WARNING_KINDS` order, then "other"."""
    counts = dict.fromkeys([kind for kind, _ in WARNING_KINDS] + ["other"], 0)
    for ledger in ledgers:
        for message in ledger.warnings:
            counts[next((kind for kind, text in WARNING_KINDS if text in message),
                        "other")] += 1
    return counts


def run_iteration(model, profiles, config, iteration_index, script=None,
                  cost_table=None, topology=None) -> HistoryLedger:
    """One full pass from t=0 to the horizon, deterministically seeded.

    `topology` is the run's `TopologyCache`; a fresh one is made without it.
    """
    rng = np.random.default_rng([config.master_seed, iteration_index])
    sim = SequentialSimulation(model, profiles, config, rng, script=script,
                               cost_table=cost_table, topology=topology)
    return sim.run()


_POOL_STATE = {}


def _pool_init(model, profiles, config, cost_table):
    _POOL_STATE["args"] = (model, profiles, config, cost_table,
                           TopologyCache(model, config.increment_h))


def _pool_run(index):
    model, profiles, config, cost_table, topology = _POOL_STATE["args"]
    return index, run_iteration(model, profiles, config, index,
                                cost_table=cost_table, topology=topology)


def run_monte_carlo(model, profiles, config, cost_table=None):
    """All iterations; results are ordered by iteration index so any worker
    count produces identical output."""
    indices = list(range(config.iterations))
    if config.worker_count == 1 or config.iterations == 1:
        topology = TopologyCache(model, config.increment_h)
        return [run_iteration(model, profiles, config, i, cost_table=cost_table,
                              topology=topology)
                for i in indices]
    results = {}
    with ProcessPoolExecutor(
            max_workers=config.worker_count,
            initializer=_pool_init,
            initargs=(model, profiles, config, cost_table)) as pool:
        chunk = max(1, len(indices) // (config.worker_count * 8))
        for index, ledger in pool.map(_pool_run, indices, chunksize=chunk):
            results[index] = ledger
    return [results[i] for i in indices]
