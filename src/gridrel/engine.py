"""Sequential Monte Carlo simulation driver.

Each iteration advances the system over a fixed increment grid. Per
increment: loads and production are read off their curves, failures
are drawn, faults are sectioned and isolated by the switchgear, the network
decomposes into sub-systems, each energized sub-system gets battery dispatch
+ load flow + cost-minimal shedding, and the history ledger accrues
interruptions, outage hours and energy not supplied.

Health changes only at a scheduled failure or a phase end, and the next
failure is drawn from the geometric distribution of the first Bernoulli
success, distribution-identical to drawing every increment. An increment
with no line fault or transformer repair active once its failures and
phase ends are applied is fault-free: it applies its ICT events and repair
ends and runs to the next change, looking up no state. Otherwise
`_shed_verdict` judges every sub-system: a `steady` one takes its
certificate's verdict (dark, or served in full), which stands to the next
change, so a state whose sub-systems are all steady is accrued up to it in
one step, and every other one is evaluated. A sub-system with no source at
t whose batteries can neither discharge nor charge from a load below zero
stays dark until one of its production units has power, so it lets the
state run up to the earlier of that increment and the next change (see
`_dark_until`); every other verdict holds for t alone. A verdict names only
the load points it leaves dark or sheds, and the accrual walks only those and
the ones whose transformer is down: every other one is served, so a
fault-free increment walks none. A walked load point's sums are taken in
increment order, so a jumped run adds what stepping adds. Sectioning and
repair phases last whole increments (floor(duration / dt)); sub-increment
residue is dropped, so with an hourly increment the seconds-to-minutes ICT
recoveries are invisible, and outage durations are exact when the
configured times are increment multiples.

Component health is stored as the increment at which the current phase
ends, worked out when the phase starts: `ends` lists each end's key under
its increment (`silent_ends` an unreported repair's). A faulted line is in
`faults`, and in `isolated` once sectioning has ended and the repair runs;
a transformer or ICT repair's key, (kind, id), is in `repairs`; a latent ICT
failure is a member of `latent` until a sectioning plan calls on the unit.
A component in none of them is working. An increment touches only the
phases ending at it, completed at its start: lines by id, then transformers
by id, then ICT units by id, and each completion draws that component's
next failure.

Switch positions are not stored: they follow from the fault table. A
disconnector is open while it is normally open or bounds a line fault in its
repairing phase, so a disconnector shared by two isolated sections stays
open until both repairs end. The breaker positions, sub-systems and their
conducting lines follow from (failed lines, open disconnectors) alone, so
each distinct state is compiled once per run, each sub-system decided
steady or not, and every later increment in that state looks it up. A
sub-system shared by several states is compiled once per run as well, and a
state in one pass over the feeder forest the network records
(`NetworkModel.split`).

The engine is handed one `TopologyCache`, the compiled run: it checks its
inputs once, before the first iteration, and binds each to its user in
per-run tables, so an increment only indexes arrays and tables, and a
sub-system is compiled by gathering its buses' rows from them.

Only normally closed lines conduct (a normally open breaker is refused at
build time), so every switching state is a forest and a sub-system a subtree
of it, kept as its `tree`, which `_grid_serves` tests the grid on and every
shedding skeleton (see `shedding`) takes. One that is not steady is compiled
with its skeleton and, where it has lines, its load-flow totals. Only a
problem the totals do not certify (see `loadflow`) gets a load-flow layout
and certificate for its slack bus (an island's slack, the bus of its
largest source, moves with the wind), and a load-flow problem is built, and
swept, only where neither certificate holds.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import shedding as shed
from .indices import MissingCostCategory
from .loadflow import (LOADING_MARGIN, RESIDUAL_MW, SLACK_VOLTAGE, LoadFlowProblem,
                       certified_totals, certified_voltage, compile_certificate,
                       compile_totals, solve_fbs)
# connected_components, the test oracles' partition, stays importable
# because perfbench wraps it here
from .network import NetworkModel, connected_components
from .stochastic import (  # draw_status stays importable: perfbench wraps it here
    MANUAL, RepairPhases, draw_battery_soc, draw_status, failure_probability,
    ict_repair_duration, plan_sectioning,
)

_EPS = 1e-9

# ledger warning kinds, each with the text its messages carry
WARNING_KINDS = (
    ("shedding infeasible", "shedding infeasible"),
    ("load flow non-converged", "load flow did not converge"),
    ("power balance", "power balance residual"),
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
        if self.automated_sectioning_h < 0 or self.manual_sectioning_h < 0:
            raise ValueError("sectioning times must be >= 0")

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
    customers: dict   # the engine's ledgers of one run share these two
    categories: dict  # read-only; only load points with a load have one
    horizon_h: float
    increment_h: float
    interruptions: dict = field(init=False)  # these three: per load point, from 0.0
    outage_hours: dict = field(init=False)
    ens_mwh: dict = field(init=False)
    events: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    sweeps_certified: int = 0  # load-flow confirmations the certificate skipped
    sweeps_run: int = 0

    def __post_init__(self):
        self.interruptions = dict.fromkeys(self.load_points, 0.0)
        self.outage_hours = dict.fromkeys(self.load_points, 0.0)
        self.ens_mwh = dict.fromkeys(self.load_points, 0.0)


def phase_increments(duration_h: float, dt_h: float) -> int:
    """Whole increments a phase lasts: floor(duration / dt), a duration
    within _EPS of a multiple of dt counting as that multiple."""
    return math.floor((duration_h + _EPS) / dt_h)


def ends_silently(duration_h: float, dt_h: float) -> bool:
    """Whether a transformer or ICT repair of this duration ends unreported.

    A repair lasting a whole number n >= 1 of increments ends after the
    evaluation of its last down increment without a `*_repaired` event or a
    next failure draw. This is a known defect, kept because fixing it
    changes the benchmark's reference results; ROADMAP item 2 records it.
    """
    n = phase_increments(duration_h, dt_h)
    return n >= 1 and duration_h <= n * dt_h + _EPS


@dataclass(slots=True)  # not frozen: built per compile, and a frozen constructor is slower
class Subsystem:
    """One connected component of a switching state.

    `tree` is its part of the feeder forest, which `_grid_serves` sums flows
    up and each of its shedding skeletons takes as its tree. `units` are the
    production units at its buses and `batteries` an island's batteries: a
    grid-fed one's idle, so it is compiled without. One that is not steady
    is compiled with `shedding`, its shedding skeleton, and, where it has
    lines, `totals`, its load-flow totals; a steady one has neither.
    `layouts` is filled once needed: per slack bus the load flow has used,
    (layout, certificate).
    """

    buses: tuple          # sorted
    grid_bus: Optional[str]  # root of the first closed feeder inside, if any
    grid_limit: float
    lines: tuple          # conducting lines inside, in model line order
    tree: tuple           # (bus, parent, feed Line) below the top bus, in BFS order
    units: tuple = ()      # (unit id, bus, min MW), by bus then by id
    batteries: tuple = ()  # (bus, Battery), by bus
    steady: bool = False  # no bus can change before health does (see `_subsystem`)
    shedding: Optional[shed.ShedSkeleton] = field(default=None, compare=False, repr=False)
    totals: Optional[tuple] = field(default=None, compare=False, repr=False)
    layouts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def _grid_serves(grid_limit, tree, demand) -> bool:
    """Whether the grid alone serves `demand`, MW at every bus of a grid-fed
    sub-system, by lossless radial flows within `grid_limit` and each feed
    line of its `tree`: a test monotone in the demands, which it sums in place,
    children first, so a bus's sum is whole when its own line is tested."""
    if sum(demand.values()) > grid_limit + _EPS:
        return False
    for bus, parent, line in reversed(tree):
        if demand[bus] > line.capacity_mw + _EPS:
            return False
        demand[parent] += demand[bus]
    return True


class TopologyCache:
    """The compiled form of one Monte Carlo run, and all the engine is handed.

    The constructor checks once that the profile set has the config's
    increment and span, and that a given cost table prices every load's
    category (`MissingCostCategory` names the first missing, in load-point
    order); without a table every load sheds at unit cost.

    Switching states are keyed by (failed lines, open disconnectors), where
    a disconnector is open while it is normally open or bounds an isolated
    line, and are compiled on first use into their sub-systems, by lowest
    bus id, by the model's `split`, one pass over its feeder forest. A
    sub-system met in several states is one object, keyed by what `split`
    gives for it, (buses in BFS order, grid bus), which within the forest
    fixes its lines; it is compiled on first use (see `_subsystem`) and gains
    its load-flow layouts as needed, so each is compiled once per run.

    The constructor also binds every input to its user, once per run: the
    model and config; per failable component its per-increment failure
    probability and, in one repair table, its repair (fixed hours, or the
    `RepairPhases` drawn when it starts) and fault event; the ids of the ICT
    units that fail latently and the controller's id; per load point with a
    load (peak MW, peak Mvar, multiplier curve) and its demand bound, from
    each curve's extremes taken once, and the load points whose demand can
    fall below zero; per bus its shed cost (0.0 without a load) and the rows
    a sub-system gathers; per production unit its available MW per increment
    and the next increment at which that is above 0.0; and the customers and
    categories every ledger shares read-only. It lives as long as the run
    that creates it, so nothing outlives the model.
    """

    def __init__(self, model: NetworkModel, profiles, config: SimulationConfig,
                 cost_table=None):
        if profiles.increment_h != config.increment_h:
            raise ValueError(f"profile set has a {profiles.increment_h:g} h increment, "
                             f"the run {config.increment_h:g} h")
        if profiles.n_increments != config.n_increments:
            raise ValueError(f"profile set spans {profiles.n_increments} increments, "
                             f"the run {config.n_increments}")
        self.model = model
        self.config = config
        increment_h = config.increment_h
        self.n_increments = config.n_increments
        self.hits = 0
        self.misses = 0
        self._states = {}
        self._subsystems = {}
        ict, ctrl = model.ict, model.ict.controller

        def fixed(reliability, event):
            return reliability, reliability.repair_time_h, event

        # key -> (reliability, repair: hours, or the `RepairPhases` drawn when
        # it starts, fault event with "{}" standing for the repair's outcome)
        table = {("line", l.id): fixed(l.reliability, "line_fault")
                 for l in model.lines.values()}
        table.update((("transformer", b.id), fixed(b.transformer, "transformer_fault"))
                     for b in model.buses.values() if b.transformer is not None)
        if ctrl is not None:
            table[("ict", ctrl.id + "/hw")] = fixed(ctrl.hardware, "controller_hw_fault")
            table[("ict", ctrl.id + "/sw")] = (ctrl.software, ctrl.software_phases,
                                               "controller_sw_fault:{}")
        # sensors and intelligent switches fail silently until called upon
        table.update((("ict", s.id), (s.reliability, s.phases, "latent_ict_fault"))
                     for s in ict.sensors)
        table.update((("ict", i.id), fixed(i.reliability, "latent_ict_fault"))
                     for i in ict.intelligent_switches)
        self.repair_table = {key: (repair, event) for key, (_, repair, event) in table.items()}
        self.latent_ict = frozenset(s.id for s in (*ict.sensors, *ict.intelligent_switches))
        self.controller_id = None if ctrl is None else ctrl.id
        # in key order, which is the order of the initial failure draws
        self.failure_p = {key: failure_probability(r.failure_rate, increment_h)
                          for key, (r, _, _) in sorted(table.items()) if r.can_fail}
        self.initial_keys = tuple(key for key, p in self.failure_p.items() if p > 0.0)
        self.initial_p = np.array([self.failure_p[key] for key in self.initial_keys])
        self.loads, self.bound, self.customers, self.categories = {}, {}, {}, {}
        negative_loads, extremes = set(), {}  # per curve, (min, max): peak * mult is monotone
        for b in model.load_points:
            bus = model.buses[b]
            self.customers[b] = bus.customers
            if bus.load is None:
                continue
            curve = profiles.load_curve(bus.load.profile)
            self.loads[b] = (bus.load.peak_mw, bus.load.peak_mvar, curve)
            self.categories[b] = bus.load.category
            lo, hi = extremes.get(bus.load.profile) or extremes.setdefault(
                bus.load.profile, (float(curve.min()), float(curve.max())))
            self.bound[b] = max(bus.load.peak_mw * lo, bus.load.peak_mw * hi, 0.0)
            if min(bus.load.peak_mw * lo, bus.load.peak_mw * hi) < 0.0:
                negative_loads.add(b)
        self.negative_loads = frozenset(negative_loads)
        # the rows `_subsystem` gathers: per bus below a root its tree row
        # (bus, parent, feed line), per bus its units and its battery
        self._row = {b: (b, model.tree_parent[b], model.lines[l])
                     for b, l in model.feed_line.items() if l is not None}
        self._units = {b: tuple((u, b, model.production[u].min_mw) for u in units)
                       for b, units in model.production_of_bus.items() if units}
        self._battery = {b: (b, model.batteries[i]) for b, i in model.battery_of_bus.items()}
        costs = (dict.fromkeys(self.categories.values(), 1.0) if cost_table is None
                 else cost_table)
        for category in self.categories.values():
            if category not in costs:
                raise MissingCostCategory(f"no interruption cost for category {category!r}")
        self.shed_cost = {b: float(costs[self.categories[b]]) if b in self.categories else 0.0
                          for b in model.bus_ids}
        self.caps, self.next_on = {}, {}
        n = profiles.n_increments
        for unit in model.production.values():
            series = profiles.production.get(unit.profile)
            cap = self.caps[unit.id] = (np.full(n, unit.max_mw) if series is None
                                        else np.minimum(unit.max_mw, np.maximum(series, 0.0)))
            # entry t: the first increment from t on with cap > 0.0, or n; entry n is n
            on = np.where(cap > 0.0, np.arange(n), n)
            self.next_on[unit.id] = np.append(np.minimum.accumulate(on[::-1])[::-1], n)

    def next_production(self, units, t) -> int:
        """The first increment after t at which one of a sub-system's
        `units` has power (cap > 0.0), or the horizon."""
        next_on = self.next_on
        return min((int(next_on[u][t + 1]) for u, _, _ in units), default=self.n_increments)

    def live_demand(self, buses, t, down) -> dict:
        """MW demand at increment t of each of `buses` not in `down`; a bus
        without a load demands 0.0."""
        loads = self.loads
        return {b: loads[b][0] * float(loads[b][2][t]) if b in loads else 0.0
                for b in buses if b not in down}

    def state(self, failed_lines, isolated_lines) -> tuple:
        """The sub-systems while `failed_lines` are down and the sections of
        `isolated_lines` (a subset of them) are cut out."""
        model = self.model
        key = (frozenset(failed_lines), model.normally_open.union(
            *map(model.sections.__getitem__, isolated_lines)))
        entry = self._states.get(key)
        if entry is None:
            self.misses += 1
            entry = self._states[key] = self._compile(*key)
        else:
            self.hits += 1
        return entry

    def _compile(self, failed, open_switches) -> tuple:
        keys, subsystems = self.model.split(failed, open_switches), self._subsystems
        for key in keys:
            if key not in subsystems:
                subsystems[key] = self._subsystem(*key)
        return tuple(map(subsystems.__getitem__, keys))

    def _subsystem(self, order, grid_bus) -> Subsystem:
        """The sub-system of `order`, its buses in BFS order from its top bus,
        fed from `grid_bus` or unfed, compiled whole (see `Subsystem`) from its
        buses' rows in the run's tables: steady when sourceless, or grid-fed
        with a limit above _EPS and its demand bounds passing `_grid_serves`;
        the test being monotone, `_shed_verdict`'s grid shortcut then holds."""
        model, row = self.model, self._row
        comp = tuple(sorted(order))
        tree = tuple(map(row.__getitem__, order[1:]))
        lines = tuple([row[b][2] for b in sorted(order[1:], key=model.feed_line.__getitem__)])
        units = tuple(u for b in sorted(self._units.keys() & order) for u in self._units[b])
        if grid_bus is None:  # steady while sourceless: no grid, production or battery
            grid_limit = 0.0
            batteries = tuple(map(self._battery.__getitem__, sorted(self._battery.keys() & order)))
            steady = not (units or batteries)
        else:  # its batteries idle, so it is compiled without them
            grid_limit, batteries = model.feeder_capacity[model.system_of_bus[grid_bus]], ()
            steady = grid_limit > _EPS and _grid_serves(
                grid_limit, tree, {b: self.bound.get(b, 0.0) for b in comp})
        return Subsystem(
            comp, grid_bus, grid_limit, lines, tree, units, batteries, steady,
            None if steady else shed.compile_skeleton(
                comp, self.shed_cost, [(l.id, l.from_bus, l.to_bus, l.capacity_mw) for l in lines],
                tree=[(b, p, l.id) for b, p, l in tree]),
            None if steady or not lines else compile_totals(
                [complex(l.r_pu, l.x_pu) for l in lines], [l.capacity_mw for l in lines],
                model.base_mva, SLACK_VOLTAGE))


class SequentialSimulation:
    """Mutable runtime for one iteration; `run()` drives it to the horizon."""

    def __init__(self, topology: TopologyCache, rng, script: Optional[list] = None):
        self.topology = topology
        self.model = model = topology.model
        self.config = config = topology.config
        self.rng = rng
        self.dt = config.increment_h
        self.n_increments = n = topology.n_increments
        self.t_index = 0

        self.faults = set()    # faulted line ids
        self.isolated = set()  # faulted lines whose sectioning has ended
        self.repairs = set()   # ("transformer" | "ict", id) under repair
        self.latent = set()  # ICT ids failed silently and not yet called upon
        self.ends, self.silent_ends = {}, {}  # increment -> keys ending then
        self.soc = {b_id: draw_battery_soc(bat, rng)
                    for b_id, bat in sorted(model.batteries.items())}
        self.was_islanded = set()  # batteries islanded at the last accrued increment
        self.was_out = set()  # load points fully out at the last accrued increment

        self.ledger = HistoryLedger(
            load_points=model.load_points,
            customers=topology.customers,
            categories=topology.categories,
            horizon_h=config.horizon_h,
            increment_h=config.increment_h,
        )

        self.schedule = {}  # increment index -> component keys failing then
        # a scripted run draws no failures, so it draws no next one either
        self.failure_p = {} if script is not None else topology.failure_p
        if script is not None:
            for ev in script:
                idx = phase_increments(ev.time_h, self.dt)
                key = self._component_key(ev.component_id)
                if not 0 <= idx < n:
                    self.ledger.warnings.append(
                        f"scripted fault on {ev.component_id!r} at {ev.time_h:g}h "
                        f"outside the horizon")
                elif key is None:
                    self.ledger.warnings.append(
                        f"scripted fault on unknown component {ev.component_id!r}")
                else:
                    self.schedule.setdefault(idx, []).append(key)
        else:  # one draw per component, as `_schedule_next` draws
            draws = self.rng.geometric(topology.initial_p).tolist()
            for key, k in zip(topology.initial_keys, draws):
                if k - 1 < n:
                    self.schedule.setdefault(k - 1, []).append(key)

    # -- failure scheduling ------------------------------------------------

    def _component_key(self, ident):
        """The key of a scripted fault's line, transformer or ICT unit, or None."""
        return next((key for key in (("line", ident), ("transformer", ident), ("ict", ident))
                     if key in self.topology.repair_table), None)

    def _schedule_next(self, key, from_index):
        """First failure increment at or after `from_index` for a working component."""
        p = self.failure_p.get(key, 0.0)
        if p <= 0.0:
            return
        k = int(self.rng.geometric(p))  # trials until first success, >= 1
        idx = from_index + k - 1
        if idx < self.n_increments:
            self.schedule.setdefault(idx, []).append(key)

    # -- driving -----------------------------------------------------------

    def run(self) -> HistoryLedger:
        n = self.n_increments
        while self.t_index < n:
            if not self._anything_active():
                if not self.schedule:
                    break
                self.t_index = min(self.schedule)
            self.run_increment()
        return self.ledger

    def _anything_active(self) -> bool:
        return bool(self.faults or self.repairs) or self.t_index in self.schedule

    def run_increment(self):
        """Execute one increment of the procedure, or a run (see `_accrue`)."""
        t = self.t_index
        self._process_new_failures(t)
        self._apply_transitions(t)
        subsystems = (self.topology.state(self.faults, self.isolated)
                      if self._electrical_fault_active() else ())
        stop = self._accrue(t, subsystems)

        # unreported repairs end here, after their last down increment, and a
        # transformer's bus stays in `was_out` (see `ends_silently`)
        self.repairs.difference_update(self.silent_ends.pop(stop, ()))
        self.t_index = stop

    # -- failures and switching ---------------------------------------------

    def _process_new_failures(self, t):
        for key in sorted(self.schedule.pop(t, ())):
            self._fail_component(key, t)

    def _fail_component(self, key, t):
        kind, ident = key
        time_h = t * self.dt
        event = self.topology.repair_table[key][1]
        if kind == "line":
            if ident in self.faults:
                return
            plan = plan_sectioning(self.model, ident, self._ict_working,
                                   self.config.automated_sectioning_h,
                                   self.config.manual_sectioning_h)
            self._discover_latent(plan, time_h)
            self.faults.add(ident)
            self.ends.setdefault(t + phase_increments(plan.duration_h, self.dt), []).append(key)
        elif key in self.repairs or ident in self.latent:
            return
        elif ident in self.topology.latent_ict:
            self.latent.add(ident)
        else:
            event = event.format(self._start_repair(key))
        self.ledger.events.append((time_h, ident, event))

    def _start_repair(self, key) -> str:
        """Start `key`'s repair at the current increment and return its
        outcome: the staged recovery's, drawn now, or manual for a repair of
        fixed hours."""
        repair = self.topology.repair_table[key][0]
        if isinstance(repair, RepairPhases):
            duration_h, outcome = ict_repair_duration(repair, self.rng)
        else:
            duration_h, outcome = repair, MANUAL
        self.repairs.add(key)
        ends = self.silent_ends if ends_silently(duration_h, self.dt) else self.ends
        ends.setdefault(self.t_index + phase_increments(duration_h, self.dt), []).append(key)
        return outcome

    def _ict_working(self, ident) -> bool:
        """Whether ICT unit `ident` works, for `plan_sectioning`; the
        controller needs both its parts, and unknown ids read False."""
        def working(unit):
            return unit not in self.latent and ("ict", unit) not in self.repairs

        if ident in self.topology.latent_ict:
            return working(ident)
        if ident == self.topology.controller_id:
            return working(ident + "/hw") and working(ident + "/sw")
        return False

    def _discover_latent(self, plan, time_h):
        """Latent ICT failures start their repair clock when first called upon."""
        for ident in (*plan.consulted_sensors, *plan.consulted_switches):
            if ident in self.latent:
                self.latent.remove(ident)
                outcome = self._start_repair(("ict", ident))
                self.ledger.events.append((time_h, ident, f"latent_discovered:{outcome}"))

    def _apply_transitions(self, t):
        """Complete the phases that end at this increment: lines by id, then
        transformers by id, then ICT units by id."""
        due = self.ends.pop(t, None)
        if due is None:
            return
        time_h = t * self.dt
        for key in sorted(due, key=lambda k: (k[0] != "line", k[0] == "ict", k[1])):
            kind, ident = key
            if kind == "line" and ident not in self.isolated:
                self.isolated.add(ident)
                self.ledger.events.append((time_h, ident, "isolated"))
                end = t + phase_increments(self.topology.repair_table[key][0], self.dt)
                if end > t:
                    self.ends.setdefault(end, []).append(key)
                    continue
                # the repair completes within this increment too
            if kind == "line":
                self.faults.remove(ident)
                self.isolated.remove(ident)
            else:
                self.repairs.remove(key)
            self.ledger.events.append((time_h, ident, f"{kind}_repaired"))
            self._schedule_next(key, t + 1)

    def _electrical_fault_active(self) -> bool:
        return bool(self.faults) or any(kind == "transformer" for kind, _ in self.repairs)

    # -- electrical evaluation ----------------------------------------------

    def _accrue(self, t, subsystems) -> int:
        """Accrue the increments from t to the next change, or to the earliest
        end of a sub-system's verdict (see `_shed_verdict`); return the
        increment after the last one accrued. Only the load points that a
        verdict (dark, or shed by a non-zero MW) or a down transformer names
        are walked, in load-point order: every other one is served, so no sum
        of it moves and it is not out. A fault-free increment, whose
        `subsystems` are (), names none."""
        stop = min([self.n_increments, *self.schedule, *self.ends, *self.silent_ends])
        loads = self.topology.loads
        # MW shed per named bus, None while it is out. A bus whose transformer
        # is down has no live demand and gets nothing
        shed = {b: None for kind, b in self.repairs if kind == "transformer"}
        islanded_now = set()
        for sub in subsystems:
            verdict, until = self._shed_verdict(sub, t, shed, islanded_now)
            stop = min(stop, until)
            if verdict is None:
                shed.update(dict.fromkeys(sub.buses))
            else:  # a down transformer's None stands
                shed = verdict | shed
        self.was_islanded = islanded_now

        ledger, dt, was_out, out_now = self.ledger, self.dt, self.was_out, set()
        for b in sorted(shed.keys() & ledger.outage_hours.keys()):  # the named load points
            mw = shed[b]
            out = mw is None
            if out:  # out over [t, stop): its terms in sequence, as stepping adds them
                hours, ens = ledger.outage_hours[b], ledger.ens_mwh[b]
                for d in ((loads[b][0] * loads[b][2][t:stop]).tolist() if b in loads
                          else [0.0] * (stop - t)):
                    hours += dt
                    if d > _EPS:
                        ens += d * dt
                ledger.outage_hours[b], ledger.ens_mwh[b] = hours, ens
            else:  # shed in part, at t alone: its live demand, as judged
                d = loads[b][0] * float(loads[b][2][t]) if b in loads else 0.0
                served = d - mw
                if d - served > _EPS:
                    ledger.ens_mwh[b] += (d - served) * dt
                out = d > _EPS and served <= _EPS
                if out:
                    ledger.outage_hours[b] += dt
            if out:
                out_now.add(b)
                if b not in was_out:
                    ledger.interruptions[b] += 1.0
                    ledger.events.append((t * dt, b, "interrupted"))
        self.was_out = out_now
        return stop

    def _shed_verdict(self, sub, t, down, islanded_now):
        """Judge one sub-system at t, the buses in `down` having no live
        demand: return the MW shed per bus it sheds, a bus it leaves out being
        served (so {} when all are), or None when it is dark, with the
        increment up to which that verdict stands. The paths, in return order:
        - steady (see `TopologyCache._subsystem`): dark without a grid bus,
          served with one, standing to the horizon;
        - no source at t: dark up to `_dark_until`;
        - no live demand: served;
        - the grid alone serves it within every limit (`_grid_serves`, the
          test that decides steady, on the live demand): served;
        - the shedding problem is infeasible: dark, with a warning;
        - otherwise the shedding problem's shed, after `_confirm_with_loadflow`,
          and its islanded batteries' SOC moves by their dispatch.
        Every verdict but the first two holds for t alone."""
        if sub.steady:
            return (None if sub.grid_bus is None else {}), self.n_increments
        live_demand = self.topology.live_demand(sub.buses, t, down)
        grid_bus, grid_limit = sub.grid_bus, sub.grid_limit
        # a singleton root feeds nothing; islands must be driven by local sources
        generators = ([] if grid_bus is None else
                      [(f"grid:{grid_bus}", grid_bus, 0.0, grid_limit, 0.0)])
        production_cap = 0.0
        caps = self.topology.caps
        for unit_id, b, min_mw in sub.units:
            cap = float(caps[unit_id][t])
            production_cap += cap
            generators.append((unit_id, b, min(min_mw, cap), cap, 0.0))

        total_demand = sum(live_demand.values())

        for bus, bat in sub.batteries:  # an island's: grid-fed ones are dropped at compile
            if bat.id not in self.was_islanded:
                # outage begins: market behavior collapses to a fresh SOC draw
                self.soc[bat.id] = draw_battery_soc(bat, self.rng)
            islanded_now.add(bat.id)
            lower, upper = update_battery_demand(
                total_demand, production_cap, bat, self.soc[bat.id], self.dt)
            if upper > _EPS or lower < -_EPS:
                # faint merit-order cost: the battery backs up free production
                generators.append((bat.id, bus, lower, upper, 1e-7))

        if not any(g[3] > _EPS or g[2] < -_EPS for g in generators):
            return None, self._dark_until(sub, t)
        if total_demand <= _EPS:
            return {}, t + 1
        # zero shed is optimal: skip the optimization and the sweep
        if grid_bus is not None and _grid_serves(
                grid_limit, sub.tree, {b: live_demand.get(b, 0.0) for b in sub.buses}):
            return {}, t + 1

        result = shed.solve_shedding(shed.build_shedding_problem(
            sub.buses, live_demand, generators=generators, skeleton=sub.shedding))
        if result.status != shed.OPTIMAL:
            self.ledger.warnings.append(
                f"t={t * self.dt:g}h: shedding infeasible in sub-system {sub.buses[0]}")
            return None, t + 1

        result = self._confirm_with_loadflow(sub, live_demand, generators, result, t)
        for _, bat in sub.batteries:
            dispatch = result.generation_mw.get(bat.id, 0.0)
            self.soc[bat.id] = min(max(
                self.soc[bat.id] - dispatch * self.dt / bat.capacity_mwh,
                bat.soc_min), bat.soc_max)
        return {b: mw for b, mw in result.shed_mw.items() if mw}, t + 1

    def _dark_until(self, sub, t):
        """The increment up to which a sub-system with no source at t stays
        dark: t + 1 while one of its batteries could discharge, or could
        charge from a load below zero; otherwise the next increment at which
        one of its units has power. Until then every unit's cap is 0.0, a
        battery's discharge bound keeps its value (SOC moves only after an
        LP) and a load at or above zero lets no battery charge, so each
        increment's verdict is again None."""
        for _, bat in sub.batteries:
            if discharge_bound(bat, self.soc[bat.id], self.dt) > _EPS:
                return t + 1
        if sub.batteries and not self.topology.negative_loads.isdisjoint(sub.buses):
            return t + 1
        return self.topology.next_production(sub.units, t)

    def _confirm_with_loadflow(self, sub, live_demand, generators, result, t):
        """Re-run the sweep with the shed applied; one repair pass on overload.
        The net injections are each bus's load less its shed at constant
        power factor, less each non-slack source at unity power factor. Where
        `certified_totals` passes their magnitudes' sum, or else
        `certified_voltage` them by layout position, the sweep cannot act (see
        `loadflow`): skip it, and build no problem."""
        comp, lines_here = sub.buses, sub.lines
        if not lines_here:  # a single bus
            return result
        slack = sub.grid_bus
        if slack is None:
            # island slack: the bus carrying the largest source, the lowest on a tie
            sources = [(-g[3], g[1]) for g in generators if g[3] > _EPS]
            if not sources:
                return result
            slack = min(sources)[1]

        loads, shed_mw, generation = self.topology.loads, result.shed_mw, result.generation_mw
        s = {}
        for b in comp:
            full = live_demand.get(b, 0.0)
            d = full - shed_mw.get(b, 0.0)
            q = 0.0
            if full > _EPS:  # then b has a load; shed at constant power factor
                _, peak_mvar, curve = loads[b]
                q = peak_mvar * float(curve[t]) * (d / full)
            s[b] = complex(d, q)
        for gen_id, bus, *_ in generators:
            if bus != slack:
                s[bus] -= generation[gen_id]
        base_mva = self.model.base_mva
        if certified_totals(sum(map(abs, s.values())) / base_mva, sub.totals) is not None:
            self.ledger.sweeps_certified += 1
            return result
        if slack not in sub.layouts:
            edges = [(l.id, l.from_bus, l.to_bus, complex(l.r_pu, l.x_pu)) for l in lines_here]
            layout = LoadFlowProblem.from_tree(slack, edges, {}, base_mva, SLACK_VOLTAGE)
            sub.layouts[slack] = (layout, compile_certificate(
                layout, {l.id: l.capacity_mw for l in lines_here}))
        layout, certificate = sub.layouts[slack]
        s_pu = tuple(s[b] / base_mva for b in layout.bus_ids)
        if certified_voltage(s_pu, certificate) is not None:
            self.ledger.sweeps_certified += 1
            return result
        self.ledger.sweeps_run += 1
        solution = solve_fbs(replace(layout, s_pu=s_pu))
        if not solution.converged:
            self.ledger.warnings.append(
                f"t={t * self.dt:g}h: load flow did not converge in sub-system {comp[0]}")
            return result

        served_total = sum(live_demand.get(b, 0.0) - shed_mw.get(b, 0.0) for b in comp)
        gen_total = solution.slack_mw + sum(generation[gen_id] for gen_id, bus, *_ in generators
                                            if bus != slack)
        residual = gen_total - solution.losses_mw - served_total
        if abs(residual) > RESIDUAL_MW:
            self.ledger.warnings.append(f"t={t * self.dt:g}h: power balance residual "
                                        f"{residual:.2e} MW in sub-system {comp[0]}")

        # the largest overload, 0.0 when every line is within its capacity
        worst = max(0.0, *(abs(solution.line_flow_mw.get(l.id, 0.0)) / l.capacity_mw - 1.0
                           for l in lines_here))
        if worst <= LOADING_MARGIN:
            return result

        # one repair pass with a tightened capacity margin covering the overshoot
        margin = 1.0 / (1.0 + worst + LOADING_MARGIN)
        retry = shed.solve_shedding(shed.build_shedding_problem(
            comp, live_demand, generators=generators,
            skeleton=sub.shedding.scaled(margin)))
        return retry if retry.status == shed.OPTIMAL else result


def discharge_bound(battery, soc, dt_h):
    """MW an islanded battery can discharge over one increment at this SOC."""
    return min(battery.inverter_mw,
               max(soc - battery.soc_min, 0.0) * battery.capacity_mwh / dt_h)


def update_battery_demand(subsystem_demand_mw, production_cap_mw, battery, soc, dt_h):
    """(lower, upper) MW bounds of one islanded battery's output this
    increment, negative when it charges: it discharges into a deficit,
    (0, upper), or charges from a surplus, (lower, 0), limited by the
    inverter and the energy headroom. Grid-fed batteries idle unasked."""
    deficit = subsystem_demand_mw - production_cap_mw
    if deficit > _EPS:
        return 0.0, max(discharge_bound(battery, soc, dt_h), 0.0)
    surplus = -deficit
    bound = min(battery.inverter_mw,
                max(battery.soc_max - soc, 0.0) * battery.capacity_mwh / dt_h,
                surplus)
    return -max(bound, 0.0), 0.0


def warning_counts(ledgers) -> dict:
    """Warnings of all ledgers by kind, in `WARNING_KINDS` order, then "other"."""
    counts = dict.fromkeys([kind for kind, _ in WARNING_KINDS] + ["other"], 0)
    for ledger in ledgers:
        for message in ledger.warnings:
            counts[next((kind for kind, text in WARNING_KINDS if text in message),
                        "other")] += 1
    return counts


def run_iteration(topology: TopologyCache, iteration_index, script=None) -> HistoryLedger:
    """One full pass of the compiled run from t=0 to the horizon,
    deterministically seeded.

    An error raised by the iteration is re-raised as a RuntimeError naming
    the iteration index and the master seed, which reproduce it.
    """
    seed = topology.config.master_seed
    rng = np.random.default_rng([seed, iteration_index])
    try:
        return SequentialSimulation(topology, rng, script=script).run()
    except Exception as exc:
        raise RuntimeError(f"iteration {iteration_index} (master seed "
                           f"{seed}) failed: {exc!r}") from exc


def _run_share(topology, indices):
    """The ledgers of `indices`, run in order up to the first that fails,
    and None or (that index, its RuntimeError)."""
    ledgers = []
    for i in indices:
        try:
            ledgers.append(run_iteration(topology, i))
        except RuntimeError as exc:
            return ledgers, (i, exc)
    return ledgers, None


def _send_share(send, topology, indices):
    send.send(_run_share(topology, indices))


def run_monte_carlo(model, profiles, config, cost_table=None):
    """All iterations, in iteration index order, so any worker count
    produces identical output. The run is compiled, and its inputs checked,
    once in the calling process, before the first iteration. Of w workers,
    worker k runs iterations k, k + w, ...: the caller runs one share, and
    each other worker, a child process, gets the compiled run once. The
    lowest failing index is raised, as in a serial run, once every share
    has stopped (each at its first failure)."""
    topology = TopologyCache(model, profiles, config, cost_table)
    n, w = config.iterations, min(config.worker_count, config.iterations)
    context, children = multiprocessing.get_context(), []
    try:
        for k in range(1, w):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_send_share, args=(send, topology, range(k, n, w)))
            child.start()
            send.close()  # so a child that dies leaves its pipe at end of file
            children.append((child, receive))
        shares = [_run_share(topology, range(0, n, w))]
        for child, receive in children:
            try:
                shares.append(receive.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"a worker exited with code {child.exitcode} "
                                   "before sending its iterations") from None
            child.join()
    finally:  # on an error, stop the children still running
        for child, receive in children:
            child.terminate()
            child.join()
            receive.close()
    failures = [failure for _, failure in shares if failure]
    if failures:  # the shares' indices differ, so `min` compares only them
        raise min(failures)[1]
    # iteration i is the (i // w)-th of share i % w
    return [shares[i % w][0][i // w] for i in range(n)]
