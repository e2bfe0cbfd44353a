"""The structured-text network file.

A file is a sequence of sections. Values are `key=value` tokens after the
component id; durations carry explicit unit suffixes ("4h", "5 min", "2 s")
and failure rates are per year ("0.07/yr" or a bare number). Impedances may
be given in ohms (converted with the declared bases) or directly per unit.

A row splits into tokens on spaces and tabs, and a `#` starts a comment that
runs to the end of the line; quotes and backslashes work as in a POSIX shell
(`new_signal="2 s"`). Section headers and `[network]` rows (`key = value`)
are read from their tokens too, so `id = PS # the feeder` names the system `PS`.

    [network]    id, base_mva, base_kv
    [systems]    dist <id> root=<bus> feeder_capacity_mw=
    [buses]      <id> customers= load_mw= load_mvar= profile= category=
                 transformer= / transformer_rate= transformer_repair=
    [lines]      <id> from= to= r_ohm=/x_ohm= (or r_pu=/x_pu=) capacity_mw=
                 rate= repair= sensor-less lines inherit [reliability] line
    [switchgear] <id> kind=breaker|disconnector line= end=from|to state=
    [production] <id> bus= min_mw= max_mw= profile=
    [batteries]  <id> bus= capacity_mwh= inverter_mw= soc_min= soc_max=
    [ict]        controller <id> ... / sensor <id> line= ... / switch <id>
                 disconnector= ...
    [reliability] class defaults: line rate= repair= / transformer ...
"""

from __future__ import annotations

import math
import re
import shlex

from .network import (
    BREAKER, DISCONNECTOR, FROM_END, TO_END,
    Battery, Bus, Controller, DistributionSystem, IctSystem, IntelligentSwitch,
    Line, LoadSpec, NetworkSpec, ProductionUnit, Sensor, Switchgear,
)
from .stochastic import ReliabilityParams, RepairPhases
from .units import duration_hours, finite_float, parse_rate_per_year

_SECTIONS = ("network", "systems", "buses", "lines", "switchgear",
             "production", "batteries", "ict", "reliability")


class NetworkFileError(ValueError):
    """Parse failure(s) with file positions."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class _Cursor:
    def __init__(self, path):
        self.path = str(path)
        self.lineno = 0
        self.errors = []

    def err(self, message):
        self.errors.append(f"{self.path}:{self.lineno}: {message}")


def _fields(tokens, cur, known, required=()):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            cur.err(f"expected key=value, got {tok!r}")
            continue
        key, _, value = tok.partition("=")
        out[key] = value
    for key in required:
        if key not in out:
            cur.err(f"missing required field {key!r}")
    for key in out:
        if key not in known:
            cur.err(f"unknown field {key!r}")
    return out


# the staged recovery's ranges, checked here to report the line (RepairPhases
# refuses them too)
def _phase_hours(text):
    hours = duration_hours(text)
    if hours < 0:
        raise ValueError("must be >= 0")
    return hours


def _probability(text):
    p = finite_float(text)
    if not 0.0 <= p <= 1.0:
        raise ValueError("must be in [0, 1]")
    return p


def _get(fields, key, cur, read, default=None):
    """`read(fields[key])`, or `default` when the key is absent or its value
    is refused; a refusal is reported at the cursor."""
    if key not in fields:
        return default
    try:
        return read(fields[key])
    except ValueError as exc:
        cur.err(f"field {key!r}: {exc}")
        return default


def _reliability(fields, cur, rate_key, repair_key, base) -> ReliabilityParams:
    """The rate and repair time under these keys, each defaulting to `base`'s."""
    return ReliabilityParams(
        _get(fields, rate_key, cur, parse_rate_per_year, base.failure_rate),
        _get(fields, repair_key, cur, duration_hours, base.repair_time_h))


def _rows(rows, cur, roles=None, what=None):
    """Yield (role, id, the tokens after them), the cursor at the row's line.
    Without `roles` a row is `<id> ...` and its role None; with them it is
    `<role> <id> ...`, and a microgrid row or one with an unknown role or no
    id is reported."""
    for lineno, tokens in rows:
        cur.lineno = lineno
        if roles is None:
            yield None, tokens[0], tokens[1:]
        elif tokens[0] == "microgrid":  # no model reads one: batteries and units carry islands
            cur.err("microgrid rows are refused: islands form from the feeder forest")
        elif tokens[0] not in roles:
            cur.err(f"unknown {what} role {tokens[0]!r} ({'/'.join(roles)})")
        elif len(tokens) < 2:
            cur.err(f"{tokens[0]} needs an id")
        else:
            yield tokens[0], tokens[1], tokens[2:]


_WORD = re.compile(r"[^ \t]+")


def _split_row(line):
    """`shlex.split(line, comments=True)` for one line. Where no quote or
    backslash comes before the first '#', shlex splits the text before it on
    spaces and tabs and drops the rest, so only a line quoting there needs it."""
    head = line.partition("#")[0]
    if "'" in head or '"' in head or "\\" in head:
        return shlex.split(line, comments=True)
    return _WORD.findall(head)


def parse_network_text(text, path="<string>") -> NetworkSpec:
    cur = _Cursor(path)
    section = None
    network = {"id": "PS", "base_mva": 10.0, "base_kv": 12.66}
    raw = {name: [] for name in _SECTIONS}

    for lineno, line in enumerate(text.splitlines(), start=1):
        cur.lineno = lineno
        stripped = line.strip()
        try:
            tokens = _split_row(stripped)
        except ValueError as exc:
            cur.err(str(exc))
            continue
        if not tokens:
            continue
        # read from its tokens, a header or [network] row takes a comment too
        if stripped.startswith("["):
            name = " ".join(tokens).strip("[] \t").lower()
            if name not in _SECTIONS:
                cur.err(f"unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if section is None:
            cur.err("content outside of any section")
            continue
        if section == "network":
            key, _, value = " ".join(tokens).partition("=")
            key = key.strip()
            value = value.strip()
            if key not in network:
                cur.err(f"unknown network field {key!r}")
            elif key == "id":
                network["id"] = value
            else:  # a base divides every per-unit quantity
                base = _get({key: value}, key, cur, finite_float, network[key])
                if base > 0:
                    network[key] = base
                else:
                    cur.err(f"field {key!r}: must be > 0")
            continue
        raw[section].append((lineno, tokens))

    spec = _assemble(network, raw, cur)
    if cur.errors:
        raise NetworkFileError(cur.errors)
    return spec


def parse_network_file(path) -> NetworkSpec:
    with open(path) as fh:
        return parse_network_text(fh.read(), path=path)


def _assemble(network, raw, cur) -> NetworkSpec:
    no_fail = ReliabilityParams(0.0, 0.0)
    defaults = {"line": no_fail, "transformer": no_fail}
    for _, kind, rest in _rows(raw["reliability"], cur):
        fields = _fields(rest, cur, {"rate", "repair"}, required=("rate", "repair"))
        if kind not in ("line", "transformer"):
            cur.err(f"unknown reliability class {kind!r}")
            continue
        defaults[kind] = _reliability(fields, cur, "rate", "repair", no_fail)

    buses = []
    for _, bus_id, rest in _rows(raw["buses"], cur):
        fields = _fields(rest, cur, {
            "customers", "load_mw", "load_mvar", "profile", "category",
            "transformer", "transformer_rate", "transformer_repair"})
        load = None
        if "load_mw" in fields:
            load = LoadSpec(
                peak_mw=_get(fields, "load_mw", cur, finite_float, 0.0),
                peak_mvar=_get(fields, "load_mvar", cur, finite_float, 0.0),
                profile=fields.get("profile", "flat"),
                category=fields.get("category", "general"))
        flag = fields.get("transformer", "no").lower()
        if flag not in ("yes", "true", "1", "no", "false", "0"):
            cur.err(f"field 'transformer': must be yes, no, true, false, 1 or 0, "
                    f"got {fields['transformer']!r}")
        transformer = defaults["transformer"] if flag in ("yes", "true", "1") else None
        if "transformer_rate" in fields or "transformer_repair" in fields:
            transformer = _reliability(fields, cur, "transformer_rate", "transformer_repair",
                                       transformer or defaults["transformer"])
        customers = _get(fields, "customers", cur, finite_float, 0.0)
        if not customers.is_integer():
            cur.err(f"field 'customers': not a whole number: {fields['customers']!r}")
        buses.append(Bus(id=bus_id, load=load, customers=int(customers),
                         transformer=transformer))

    lines = []
    for _, line_id, rest in _rows(raw["lines"], cur):
        fields = _fields(rest, cur, {"from", "to", "r_ohm", "x_ohm", "r_pu", "x_pu",
                                     "capacity_mw", "rate", "repair"},
                         required=("from", "to", "capacity_mw"))
        if "r_pu" in fields or "x_pu" in fields:
            unit, z = "pu", 1.0
        else:  # only ohms need the impedance base; at extreme bases * gives inf or 0, ** raises
            unit, z = "ohm", network["base_kv"] * network["base_kv"] / network["base_mva"]
            if not 0.0 < z < math.inf:
                cur.err(f"impedance base base_kv^2 / base_mva = {z!r}: must be finite and > 0")
                z = 1.0
        r_pu = _get(fields, "r_" + unit, cur, finite_float, 0.0) / z
        x_pu = _get(fields, "x_" + unit, cur, finite_float, 0.0) / z
        rel = _reliability(fields, cur, "rate", "repair", defaults["line"])
        lines.append(Line(
            id=line_id, from_bus=fields.get("from", ""), to_bus=fields.get("to", ""),
            r_pu=r_pu, x_pu=x_pu,
            capacity_mw=_get(fields, "capacity_mw", cur, finite_float, 0.0), reliability=rel))

    switchgear = []
    for _, sw_id, rest in _rows(raw["switchgear"], cur):
        fields = _fields(rest, cur, {"kind", "line", "end", "state"},
                         required=("kind", "line", "end"))
        kind = fields.get("kind", "")
        if kind not in (BREAKER, DISCONNECTOR):
            cur.err(f"switchgear kind must be breaker or disconnector, got {kind!r}")
        end = fields.get("end", "")
        if end not in (FROM_END, TO_END):
            cur.err(f"switchgear end must be from or to, got {end!r}")
        state = fields.get("state", "closed")
        if state not in ("open", "closed"):
            cur.err(f"switchgear state must be open or closed, got {state!r}")
        switchgear.append(Switchgear(
            id=sw_id, kind=kind, host_line=fields.get("line", ""),
            position=end, normal_closed=(state == "closed")))

    production = []
    for _, unit_id, rest in _rows(raw["production"], cur):
        fields = _fields(rest, cur, {"bus", "min_mw", "max_mw", "profile"},
                         required=("bus", "max_mw"))
        production.append(ProductionUnit(
            id=unit_id, bus=fields.get("bus", ""),
            min_mw=_get(fields, "min_mw", cur, finite_float, 0.0),
            max_mw=_get(fields, "max_mw", cur, finite_float, 0.0),
            profile=fields.get("profile")))

    batteries = []
    for _, bat_id, rest in _rows(raw["batteries"], cur):
        fields = _fields(rest, cur, {"bus", "capacity_mwh", "inverter_mw", "soc_min",
                                     "soc_max"}, required=("bus", "capacity_mwh", "inverter_mw"))
        batteries.append(Battery(
            id=bat_id, bus=fields.get("bus", ""),
            capacity_mwh=_get(fields, "capacity_mwh", cur, finite_float, 0.0),
            inverter_mw=_get(fields, "inverter_mw", cur, finite_float, 0.0),
            soc_min=_get(fields, "soc_min", cur, finite_float, 0.0),
            soc_max=_get(fields, "soc_max", cur, finite_float, 1.0)))

    controller, sensors, int_switches = None, [], []
    for role, ident, rest in _rows(raw["ict"], cur, ("controller", "sensor", "switch"), "ict"):
        if role == "controller":
            fields = _fields(rest, cur, {"hw_rate", "hw_repair", "sw_rate", "new_signal",
                                         "reboot", "manual", "p_new_signal", "p_reboot"},
                             required=("hw_rate", "hw_repair", "sw_rate"))
            if controller is not None:
                cur.err("more than one controller")
            controller = Controller(
                id=ident,
                hardware=_reliability(fields, cur, "hw_rate", "hw_repair", no_fail),
                software=ReliabilityParams(
                    _get(fields, "sw_rate", cur, parse_rate_per_year, 0.0), 0.0),
                software_phases=_phases(fields, cur))
        elif role == "sensor":
            fields = _fields(rest, cur, {"line", "rate", "new_signal", "reboot", "manual",
                                         "p_new_signal", "p_reboot"},
                             required=("line", "rate"))
            rate = _get(fields, "rate", cur, parse_rate_per_year, 0.0)
            phases = _phases(fields, cur)  # its repair time is its manual phase
            sensors.append(Sensor(
                id=ident, line_ref=fields.get("line", ""),
                reliability=ReliabilityParams(rate, phases.manual_repair_h), phases=phases))
        else:
            fields = _fields(rest, cur, {"disconnector", "rate", "repair"},
                             required=("disconnector", "rate", "repair"))
            int_switches.append(IntelligentSwitch(
                id=ident, disconnector_ref=fields.get("disconnector", ""),
                reliability=_reliability(fields, cur, "rate", "repair", no_fail)))

    systems = []
    for _, ident, rest in _rows(raw["systems"], cur, ("dist",), "system"):
        fields = _fields(rest, cur, {"root", "feeder_capacity_mw"}, required=("root",))
        systems.append(DistributionSystem(
            id=ident, root_bus=fields.get("root", ""),
            feeder_capacity_mw=_get(fields, "feeder_capacity_mw", cur, finite_float)))

    return NetworkSpec(
        power_system_id=network["id"],
        base_mva=network["base_mva"], base_kv=network["base_kv"],
        buses=tuple(buses), lines=tuple(lines), switchgear=tuple(switchgear),
        production=tuple(production), batteries=tuple(batteries),
        ict=IctSystem(controller, tuple(sensors), tuple(int_switches)),
        distribution_systems=tuple(systems))


def _phases(fields, cur) -> RepairPhases:
    return RepairPhases(
        new_signal_h=_get(fields, "new_signal", cur, _phase_hours, 0.0),
        reboot_h=_get(fields, "reboot", cur, _phase_hours, 0.0),
        manual_repair_h=_get(fields, "manual", cur, _phase_hours, 0.0),
        p_new_signal=_get(fields, "p_new_signal", cur, _probability, 0.9),
        p_reboot=_get(fields, "p_reboot", cur, _probability, 0.9))


def serialize_network_spec(spec: NetworkSpec) -> str:
    """Render a spec back to file text; parsing the output reproduces it."""
    out = ["[network]", f"id = {spec.power_system_id}",
           f"base_mva = {spec.base_mva!r}", f"base_kv = {spec.base_kv!r}", ""]

    out.append("[systems]")
    for d in spec.distribution_systems:
        extra = (f" feeder_capacity_mw={d.feeder_capacity_mw!r}"
                 if d.feeder_capacity_mw is not None else "")
        out.append(f"dist {d.id} root={d.root_bus}{extra}")

    out.append("")
    out.append("[buses]")
    for b in spec.buses:
        parts = [b.id, f"customers={b.customers}"]
        if b.load is not None:
            parts += [f"load_mw={b.load.peak_mw!r}", f"load_mvar={b.load.peak_mvar!r}",
                      f"profile={b.load.profile}", f"category={b.load.category}"]
        if b.transformer is not None:
            parts += [f"transformer_rate={b.transformer.failure_rate!r}",
                      f"transformer_repair={b.transformer.repair_time_h!r}h"]
        out.append(" ".join(parts))

    out.append("")
    out.append("[lines]")
    for l in spec.lines:
        out.append(f"{l.id} from={l.from_bus} to={l.to_bus} r_pu={l.r_pu!r} "
                   f"x_pu={l.x_pu!r} capacity_mw={l.capacity_mw!r} "
                   f"rate={l.reliability.failure_rate!r} "
                   f"repair={l.reliability.repair_time_h!r}h")

    out.append("")
    out.append("[switchgear]")
    for s in spec.switchgear:
        state = "closed" if s.normal_closed else "open"
        out.append(f"{s.id} kind={s.kind} line={s.host_line} end={s.position} state={state}")

    if spec.production:
        out.append("")
        out.append("[production]")
        for p in spec.production:
            profile = f" profile={p.profile}" if p.profile else ""
            out.append(f"{p.id} bus={p.bus} min_mw={p.min_mw!r} max_mw={p.max_mw!r}{profile}")

    if spec.batteries:
        out.append("")
        out.append("[batteries]")
        for b in spec.batteries:
            out.append(f"{b.id} bus={b.bus} capacity_mwh={b.capacity_mwh!r} "
                       f"inverter_mw={b.inverter_mw!r} soc_min={b.soc_min!r} "
                       f"soc_max={b.soc_max!r}")

    if not spec.ict.empty:
        out.append("")
        out.append("[ict]")
        c = spec.ict.controller
        if c is not None:
            out.append(
                f"controller {c.id} hw_rate={c.hardware.failure_rate!r} "
                f"hw_repair={c.hardware.repair_time_h!r}h "
                f"sw_rate={c.software.failure_rate!r} "
                + _phases_text(c.software_phases))
        for s in spec.ict.sensors:
            out.append(f"sensor {s.id} line={s.line_ref} rate={s.reliability.failure_rate!r} "
                       + _phases_text(s.phases))
        for i in spec.ict.intelligent_switches:
            out.append(f"switch {i.id} disconnector={i.disconnector_ref} "
                       f"rate={i.reliability.failure_rate!r} "
                       f"repair={i.reliability.repair_time_h!r}h")
    out.append("")
    return "\n".join(out)


def _phases_text(p: RepairPhases) -> str:
    return (f"new_signal={p.new_signal_h!r}h reboot={p.reboot_h!r}h "
            f"manual={p.manual_repair_h!r}h p_new_signal={p.p_new_signal!r} "
            f"p_reboot={p.p_reboot!r}")
