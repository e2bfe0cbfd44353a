"""Static model of a radially operated distribution network.

The model covers the electrical layer (buses, lines, switchgear, production
units, batteries) and the ICT layer (controller, line sensors, intelligent
switch actuators on disconnectors). It is immutable after ``build_network``
and safe to share across simulation workers; all dynamic state (switch
positions, component health, SOC) lives in the simulation runtime.

Conventions:
  * component ids are strings, ordered lexicographically wherever a
    deterministic order is needed;
  * line impedances are stored in per-unit on the model's power base;
  * a line conducts iff it is not failed and every switch mounted on it
    is closed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .stochastic import ReliabilityParams, RepairPhases

FROM_END = "from"
TO_END = "to"

DISCONNECTOR = "disconnector"
BREAKER = "breaker"


class NetworkValidationError(ValueError):
    """Raised when a network spec violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid network:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class LoadSpec:
    """Demand attached to a bus: peak power, profile shape and cost category."""

    peak_mw: float
    peak_mvar: float = 0.0
    profile: str = "flat"
    category: str = "general"


@dataclass(frozen=True)
class Bus:
    id: str
    load: Optional[LoadSpec] = None
    customers: int = 0
    transformer: Optional[ReliabilityParams] = None


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    r_pu: float
    x_pu: float
    capacity_mw: float
    reliability: ReliabilityParams = ReliabilityParams(0.0, 0.0)


@dataclass(frozen=True)
class Switchgear:
    id: str
    kind: str  # DISCONNECTOR or BREAKER
    host_line: str
    position: str  # FROM_END or TO_END
    normal_closed: bool = True


@dataclass(frozen=True)
class ProductionUnit:
    id: str
    bus: str
    min_mw: float = 0.0
    max_mw: float = 0.0
    profile: Optional[str] = None


@dataclass(frozen=True)
class Battery:
    id: str
    bus: str
    capacity_mwh: float
    inverter_mw: float
    soc_min: float = 0.0
    soc_max: float = 1.0


@dataclass(frozen=True)
class Sensor:
    id: str
    line_ref: str
    reliability: ReliabilityParams
    phases: RepairPhases


@dataclass(frozen=True)
class IntelligentSwitch:
    id: str
    disconnector_ref: str
    reliability: ReliabilityParams


@dataclass(frozen=True)
class Controller:
    id: str
    hardware: ReliabilityParams
    software: ReliabilityParams
    software_phases: RepairPhases


@dataclass(frozen=True)
class IctSystem:
    controller: Optional[Controller] = None
    sensors: tuple = ()
    intelligent_switches: tuple = ()

    @property
    def empty(self) -> bool:
        return self.controller is None and not self.sensors and not self.intelligent_switches


@dataclass(frozen=True)
class DistributionSystem:
    id: str
    root_bus: str
    feeder_capacity_mw: Optional[float] = None


@dataclass(frozen=True)
class NetworkSpec:
    """Raw, unvalidated network description straight from a network file."""

    power_system_id: str = "PS"
    base_mva: float = 10.0
    base_kv: float = 12.66
    buses: tuple = ()
    lines: tuple = ()
    switchgear: tuple = ()
    production: tuple = ()
    batteries: tuple = ()
    ict: IctSystem = field(default_factory=IctSystem)
    distribution_systems: tuple = ()


class NetworkModel:
    """Validated network with cached connectivity structures."""

    def __init__(self, spec: NetworkSpec):
        self.base_mva = spec.base_mva
        self.buses = {b.id: b for b in sorted(spec.buses, key=lambda b: b.id)}
        self.lines = {l.id: l for l in sorted(spec.lines, key=lambda l: l.id)}
        self.switchgear = {s.id: s for s in sorted(spec.switchgear, key=lambda s: s.id)}
        self.production = {p.id: p for p in sorted(spec.production, key=lambda p: p.id)}
        self.batteries = {b.id: b for b in sorted(spec.batteries, key=lambda b: b.id)}
        self.ict = spec.ict
        self.distribution_systems = tuple(sorted(spec.distribution_systems, key=lambda d: d.id))

        self.bus_ids = tuple(self.buses)
        self.line_ids = tuple(self.lines)
        # buses with demand or customers, in canonical order
        self.load_points = tuple(b.id for b in self.buses.values()
                                 if b.load is not None or b.customers > 0)

        # adjacency over all lines: bus id -> list of (line id, other bus id)
        self.adjacency = {b: [] for b in self.bus_ids}
        for line in self.lines.values():
            self.adjacency[line.from_bus].append((line.id, line.to_bus))
            self.adjacency[line.to_bus].append((line.id, line.from_bus))
        for lst in self.adjacency.values():
            lst.sort()

        self.line_switches = {l: [] for l in self.line_ids}
        for sw in self.switchgear.values():
            self.line_switches[sw.host_line].append(sw.id)
        for lst in self.line_switches.values():
            lst.sort()

        # switch ids; `build_network` refuses a normally open breaker
        self.normally_open = frozenset(s.id for s in self.switchgear.values()
                                       if not s.normal_closed)
        self.normally_open_lines = frozenset(self.switchgear[s].host_line
                                             for s in self.normally_open)

        # Filled in by _build_trees and _bind_attachments.
        self.system_of_bus = {}    # bus id -> distribution system id
        self.breakers_of_system = {}  # system id -> ids of the breakers on its root's lines
        self.breaker_of_system = {}   # system id -> the last of them by id
        self.cycle_lines = frozenset()  # normally closed lines that close a cycle in a walk
        self.tree_order = ()       # buses breadth first from each root, feeder by feeder
        self.tree_parent = {}      # bus id -> parent bus id in its feeder tree, None at a root
        self.feed_line = {}        # bus id -> id of the line from its parent, None at a root
        self.sensor_of_line = {}
        self.int_switch_of_disc = {}
        self.battery_of_bus = {}
        self.production_of_bus = {b: [] for b in self.bus_ids}
        self.feeder_capacity = {}

        self._build_trees()
        # line id -> the sorted ids of the disconnectors that bound its section
        self.sections = {l: self._section_around(l) for l in self.line_ids}
        self._bind_attachments()

    # -- construction ---------------------------------------------------

    def _build_trees(self):
        """Walk each feeder breadth first from its root over the normally
        closed lines, neighbours in line id order; record its capacity and,
        in one scan, its breakers. A line that reaches a bus its walk holds,
        other than the walked bus's feed line, closes a cycle. Feeders walk
        on their own, so one that reaches another claims its buses again,
        root included. `_validate_topology` checks radiality on both."""
        order, cycle_lines = [], set()
        for dsys in self.distribution_systems:
            root = dsys.root_bus
            self.system_of_bus[root] = dsys.id
            self.tree_parent[root] = self.feed_line[root] = None
            feeder = [root]
            seen = {root}
            for bus in feeder:  # breadth first: `feeder` grows while it is walked
                for line_id, other in self.adjacency[bus]:
                    if line_id in self.normally_open_lines or line_id == self.feed_line[bus]:
                        continue
                    if other in seen:
                        cycle_lines.add(line_id)
                        continue
                    seen.add(other)
                    self.system_of_bus[other] = dsys.id
                    self.tree_parent[other], self.feed_line[other] = bus, line_id
                    feeder.append(other)
            order += feeder
            if dsys.feeder_capacity_mw is not None:
                self.feeder_capacity[dsys.id] = dsys.feeder_capacity_mw
            else:
                self.feeder_capacity[dsys.id] = sum(
                    (self.lines[l].capacity_mw for l, _ in self.adjacency[root]), 0.0)
        self.tree_order = tuple(order)
        self.cycle_lines = frozenset(cycle_lines)

        for sw in self.switchgear.values():
            if sw.kind != BREAKER:
                continue
            host = self.lines[sw.host_line]
            for dsys in self.distribution_systems:
                if dsys.root_bus in (host.from_bus, host.to_bus):
                    self.breakers_of_system.setdefault(dsys.id, []).append(sw.id)
                    self.breaker_of_system[dsys.id] = sw.id

    def _switch_at(self, line_id: str, end: str) -> Optional[str]:
        for sw_id in self.line_switches[line_id]:
            if self.switchgear[sw_id].position == end:
                return sw_id
        return None

    def _section_around(self, start_line: str) -> tuple:
        """Walk outward from a line, stopping at any switchgear position."""
        boundary = []
        queue = deque([("line", start_line)])
        seen_lines = {start_line}
        seen_buses = set()
        while queue:
            kind, ident = queue.popleft()
            if kind == "line":
                line = self.lines[ident]
                for end, bus in ((FROM_END, line.from_bus), (TO_END, line.to_bus)):
                    sw = self._switch_at(ident, end)
                    if sw is not None:
                        boundary.append(sw)
                    elif bus not in seen_buses:
                        seen_buses.add(bus)
                        queue.append(("bus", bus))
            else:
                for line_id, _other in self.adjacency[ident]:
                    if line_id in seen_lines:
                        continue
                    line = self.lines[line_id]
                    end = FROM_END if line.from_bus == ident else TO_END
                    sw = self._switch_at(line_id, end)
                    if sw is not None:
                        boundary.append(sw)
                    else:
                        seen_lines.add(line_id)
                        queue.append(("line", line_id))
        return tuple(sorted(s for s in boundary
                            if self.switchgear[s].kind == DISCONNECTOR))

    def _bind_attachments(self):
        for sensor in self.ict.sensors:
            self.sensor_of_line[sensor.line_ref] = sensor.id
        for isw in self.ict.intelligent_switches:
            self.int_switch_of_disc[isw.disconnector_ref] = isw.id
        for bat in self.batteries.values():
            self.battery_of_bus[bat.bus] = bat.id
        for unit in self.production.values():
            self.production_of_bus[unit.bus].append(unit.id)

    # -- queries ----------------------------------------------------------

    def line_conducts(self, line_id: str, switch_closed, failed_lines) -> bool:
        if line_id in failed_lines:
            return False
        return all(switch_closed.get(s, self.switchgear[s].normal_closed)
                   for s in self.line_switches[line_id])

    def split(self, failed_lines, open_switches) -> tuple:
        """The sub-systems while `failed_lines` are down and `open_switches`,
        which hold `normally_open`, are open: by lowest bus id, each as (its
        buses in BFS order from its top bus, its grid bus or None).

        One pass over the feeder forest (`tree_order`, `tree_parent`,
        `feed_line`): each bus joins its parent's sub-system unless its feed
        line is cut. The cut lines are the failed ones, those that carry an
        open switch, and the breaker line of each root that a failed line
        with no open switch of its own reaches up the parents across no open
        switch; such a root's breaker stays open, so it has no grid bus.
        """
        parent, feed_line = self.tree_parent, self.feed_line
        open_lines = {self.switchgear[s].host_line for s in open_switches}
        tripped = set()
        for bus in (self.lines[l].from_bus for l in failed_lines if l not in open_lines):
            while (line := feed_line[bus]) is not None and line not in open_lines:
                bus = parent[bus]
            if line is None:
                tripped.add(bus)
        cut = open_lines.union(failed_lines, (
            self.switchgear[self.breaker_of_system[self.system_of_bus[root]]].host_line
            for root in tripped), (None,))  # None, a root's feed line, is cut too
        orders, order_of = [], {}
        for bus in self.tree_order:
            if feed_line[bus] in cut:
                order_of[bus] = order = [bus]
                orders.append(order)
            else:
                order_of[bus] = order = order_of[parent[bus]]
                order.append(bus)
        return tuple((tuple(order), order[0] if feed_line[order[0]] is None
                      and order[0] not in tripped else None)
                     for order in sorted(orders, key=min))


def connected_components(model: NetworkModel, switch_closed, failed_lines=frozenset()):
    """Partition buses into maximal sets joined by conducting lines, by a
    search over every line; the engine and the closed form use `split`.

    This is the test oracles' partition, which the benchmark's tracer wraps.
    `switch_closed` maps switch id -> bool; missing entries default to the
    normal state. Components are returned as sorted tuples, ordered by their
    lowest bus id, so the output is deterministic.
    """
    failed = frozenset(failed_lines)
    conducting = {l for l in model.line_ids
                  if model.line_conducts(l, switch_closed, failed)}
    unseen = set(model.bus_ids)
    components = []
    for start in model.bus_ids:  # canonical order
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        queue = deque([start])
        while queue:
            bus = queue.popleft()
            for line_id, other in model.adjacency[bus]:
                if line_id in conducting and other in unseen:
                    unseen.discard(other)
                    comp.append(other)
                    queue.append(other)
        components.append(tuple(sorted(comp)))
    components.sort(key=lambda c: c[0])
    return components


def build_network(spec: NetworkSpec) -> NetworkModel:
    """Validate a spec, then the model's feeder walk, and return the
    immutable model.

    Raises NetworkValidationError carrying the full list of violations.
    """
    errors = list(_validate_spec(spec))
    if errors:
        raise NetworkValidationError(errors)
    model = NetworkModel(spec)
    errors.extend(_validate_topology(model))
    if errors:
        raise NetworkValidationError(errors)
    return model


def _check_duplicates(items: Iterable[str], what: str):
    seen = set()
    for ident in items:
        if ident in seen:
            yield f"duplicate {what} id {ident!r}"
        seen.add(ident)


def _validate_spec(spec: NetworkSpec):
    for name in ("base_mva", "base_kv"):
        if not getattr(spec, name) > 0:  # NaN too
            yield f"{name} must be > 0"
    bus_ids = [b.id for b in spec.buses]
    line_ids = [l.id for l in spec.lines]
    yield from _check_duplicates(bus_ids, "bus")
    yield from _check_duplicates(line_ids, "line")
    yield from _check_duplicates([s.id for s in spec.switchgear], "switchgear")
    yield from _check_duplicates([p.id for p in spec.production], "production unit")
    yield from _check_duplicates([b.id for b in spec.batteries], "battery")
    yield from _check_duplicates([d.id for d in spec.distribution_systems],
                                 "distribution system")
    # the engine keys both kinds of generator by id in one dict
    for ident in sorted({p.id for p in spec.production} & {b.id for b in spec.batteries}):
        yield f"production unit and battery share the id {ident!r}"
    buses = set(bus_ids)
    lines = set(line_ids)
    switches = {s.id: s for s in spec.switchgear}

    for bus in spec.buses:
        if bus.customers < 0:
            yield f"bus {bus.id!r}: customer count must be >= 0"
        if bus.transformer is not None:
            yield from _check_reliability(bus.transformer, f"bus {bus.id!r} transformer")

    battery_buses = set()
    for bat in spec.batteries:
        if bat.bus not in buses:
            yield f"battery {bat.id!r} references unknown bus {bat.bus!r}"
        if bat.bus in battery_buses:
            yield f"bus {bat.bus!r} has more than one battery"
        battery_buses.add(bat.bus)
        if not (0.0 <= bat.soc_min <= bat.soc_max <= 1.0):
            yield f"battery {bat.id!r}: need 0 <= soc_min <= soc_max <= 1"
        if bat.inverter_mw <= 0:
            yield f"battery {bat.id!r}: inverter capacity must be > 0"
        if bat.capacity_mwh <= 0:
            yield f"battery {bat.id!r}: energy capacity must be > 0"

    for line in spec.lines:
        if line.from_bus not in buses or line.to_bus not in buses:
            yield f"line {line.id!r} references unknown bus"
        if line.from_bus == line.to_bus:
            yield f"line {line.id!r} connects a bus to itself"
        if line.capacity_mw <= 0:
            yield f"line {line.id!r}: capacity must be > 0"
        if not all(0 <= z < float("inf") for z in (line.r_pu, line.x_pu)):  # NaN too
            yield f"line {line.id!r}: impedance must be finite and >= 0"
        yield from _check_reliability(line.reliability, f"line {line.id!r}")

    roots = {d.root_bus for d in spec.distribution_systems}
    for sw in spec.switchgear:
        if sw.kind not in (DISCONNECTOR, BREAKER):
            yield f"switchgear {sw.id!r}: unknown kind {sw.kind!r}"
        if sw.host_line not in lines:
            yield f"switchgear {sw.id!r} references unknown line {sw.host_line!r}"
        elif sw.kind == BREAKER:
            host = next(l for l in spec.lines if l.id == sw.host_line)
            if host.from_bus not in roots and host.to_bus not in roots:
                yield f"circuit breaker {sw.id!r} is not at a feeder root"
        if sw.kind == BREAKER and not sw.normal_closed:  # only the engine opens breakers
            yield f"circuit breaker {sw.id!r} must be normally closed"
        if sw.position not in (FROM_END, TO_END):
            yield f"switchgear {sw.id!r}: position must be from/to"

    for unit in spec.production:
        if unit.bus not in buses:
            yield f"production unit {unit.id!r} references unknown bus {unit.bus!r}"
        if not (0.0 <= unit.min_mw <= unit.max_mw):
            yield f"production unit {unit.id!r}: need 0 <= min <= max output"

    # ICT units share one failure table, and scripted faults name lines,
    # transformers and ICT units by bare id
    ict = spec.ict
    ict_ids = [s.id for s in ict.sensors] + [i.id for i in ict.intelligent_switches]
    if ict.controller is not None:
        ict_ids += [ict.controller.id + part for part in ("", "/hw", "/sw")]
        yield from _check_reliability(ict.controller.hardware,
                                      f"controller {ict.controller.id!r} hardware")
        # the software's repair is its staged recovery, so only its rate is checked
        if ict.controller.software.failure_rate < 0:
            yield f"controller {ict.controller.id!r} software: failure rate must be >= 0"
    yield from _check_duplicates(ict_ids, "ICT")
    transformers = {b.id for b in spec.buses if b.transformer is not None}
    for ident in sorted(set(ict_ids) & (lines | transformers)):
        yield f"ICT id {ident!r} is also a line or transformer bus id"
    sensed = set()
    for sensor in ict.sensors:
        if sensor.line_ref not in lines:
            yield f"sensor {sensor.id!r} references unknown line {sensor.line_ref!r}"
        elif sensor.line_ref in sensed:
            yield f"line {sensor.line_ref!r} has more than one sensor"
        sensed.add(sensor.line_ref)
        yield from _check_reliability(sensor.reliability, f"sensor {sensor.id!r}")
    actuated = set()
    for isw in ict.intelligent_switches:
        disc = switches.get(isw.disconnector_ref)
        if disc is None:
            yield f"intelligent switch {isw.id!r} references unknown switchgear"
        elif disc.kind != DISCONNECTOR:
            yield f"intelligent switch {isw.id!r} must sit on a disconnector, not {disc.kind}"
        elif isw.disconnector_ref in actuated:
            yield f"disconnector {isw.disconnector_ref!r} has more than one intelligent switch"
        actuated.add(isw.disconnector_ref)
        yield from _check_reliability(isw.reliability, f"intelligent switch {isw.id!r}")

    if not spec.distribution_systems:
        yield "no distribution system declared"
    for dsys in spec.distribution_systems:
        if dsys.root_bus not in buses:
            yield f"distribution system {dsys.id!r} has unknown root bus {dsys.root_bus!r}"
        if dsys.feeder_capacity_mw is not None and dsys.feeder_capacity_mw < 0:
            yield f"distribution system {dsys.id!r}: feeder capacity must be >= 0"


def _check_reliability(params: ReliabilityParams, what: str):
    if params.failure_rate < 0:
        yield f"{what}: failure rate must be >= 0"
    if params.failure_rate > 0 and params.repair_time_h <= 0:
        yield f"{what}: repair time must be > 0 when the failure rate is > 0"


def _validate_topology(model: NetworkModel):
    # every bus must have been claimed by exactly one feeder tree
    orphans = [b for b in model.bus_ids if b not in model.system_of_bus]
    if orphans:
        yield ("buses not fed by any distribution system "
               f"(normally closed path to a root missing): {', '.join(orphans)}")

    # radiality: a cycle inside a feeder's walk, or a root that another
    # feeder's walk claimed
    if model.cycle_lines or any(model.system_of_bus[d.root_bus] != d.id
                                for d in model.distribution_systems):
        yield ("normally closed lines contain a cycle or join two feeders: "
               "radial operation requires a tree per distribution system")

    for dsys in model.distribution_systems:
        if dsys.id not in model.breaker_of_system:
            yield f"distribution system {dsys.id!r} has no circuit breaker at its root"
    for sys_id, found in model.breakers_of_system.items():
        if len(found) > 1:
            yield f"distribution system {sys_id!r} has more than one circuit breaker"
