"""The structured-text network file.

A file is a sequence of sections. Values are `key=value` tokens after the
component id; durations carry explicit unit suffixes ("4h", "5 min", "2 s")
and failure rates are per year ("0.07/yr" or a bare number). Impedances may
be given in ohms (converted with the declared bases) or directly per unit.

    [network]    id, base_mva, base_kv
    [systems]    dist <id> root=<bus>;  microgrid <id> via=<disconnector>
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

import shlex

from .network import (
    BREAKER, DISCONNECTOR, FROM_END, TO_END,
    Battery, Bus, Controller, DistributionSystem, IctSystem, IntelligentSwitch,
    Line, LoadSpec, Microgrid, NetworkSpec, ProductionUnit, Sensor, Switchgear,
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


def _tokens(line):
    return shlex.split(line, comments=True)


def _fields(tokens, cur, required=(), known=None):
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
    if known is not None:
        for key in out:
            if key not in known:
                cur.err(f"unknown field {key!r}")
    return out


def _get_float(fields, key, cur, default=None):
    if key not in fields:
        return default
    try:
        return finite_float(fields[key])
    except ValueError:
        cur.err(f"field {key!r}: not a finite number: {fields[key]!r}")
        return default


def _get_rate(fields, key, cur, default=None):
    if key not in fields:
        return default
    try:
        return parse_rate_per_year(fields[key])
    except ValueError as exc:
        cur.err(f"field {key!r}: {exc}")
        return default


def _get_duration(fields, key, cur, default=None):
    if key not in fields:
        return default
    try:
        return duration_hours(fields[key])
    except ValueError as exc:
        cur.err(f"field {key!r}: {exc}")
        return default


def parse_network_text(text, path="<string>") -> NetworkSpec:
    cur = _Cursor(path)
    section = None
    network = {"id": "PS", "base_mva": 10.0, "base_kv": 12.66}
    raw = {name: [] for name in _SECTIONS}

    for lineno, line in enumerate(text.splitlines(), start=1):
        cur.lineno = lineno
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            name = stripped.strip("[] \t").lower()
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
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in network:
                cur.err(f"unknown network field {key!r}")
            elif key == "id":
                network["id"] = value
            else:  # a base divides every per-unit quantity
                base = _get_float({key: value}, key, cur, network[key])
                if base > 0:
                    network[key] = base
                else:
                    cur.err(f"field {key!r}: must be > 0")
            continue
        try:
            tokens = _tokens(stripped)
        except ValueError as exc:
            cur.err(str(exc))
            continue
        if tokens:
            raw[section].append((lineno, tokens))

    spec = _assemble(network, raw, cur)
    if cur.errors:
        raise NetworkFileError(cur.errors)
    return spec


def parse_network_file(path) -> NetworkSpec:
    with open(path) as fh:
        return parse_network_text(fh.read(), path=path)


def _assemble(network, raw, cur) -> NetworkSpec:
    z_base = network["base_kv"] ** 2 / network["base_mva"]

    defaults = {}
    for lineno, tokens in raw["reliability"]:
        cur.lineno = lineno
        kind = tokens[0]
        fields = _fields(tokens[1:], cur, required=("rate", "repair"),
                         known={"rate", "repair"})
        if kind not in ("line", "transformer"):
            cur.err(f"unknown reliability class {kind!r}")
            continue
        defaults[kind] = ReliabilityParams(
            _get_rate(fields, "rate", cur, 0.0),
            _get_duration(fields, "repair", cur, 0.0))

    no_fail = ReliabilityParams(0.0, 0.0)

    buses = []
    for lineno, tokens in raw["buses"]:
        cur.lineno = lineno
        bus_id = tokens[0]
        fields = _fields(tokens[1:], cur, known={
            "customers", "load_mw", "load_mvar", "profile", "category",
            "transformer", "transformer_rate", "transformer_repair"})
        load = None
        if "load_mw" in fields:
            load = LoadSpec(
                peak_mw=_get_float(fields, "load_mw", cur, 0.0),
                peak_mvar=_get_float(fields, "load_mvar", cur, 0.0),
                profile=fields.get("profile", "flat"),
                category=fields.get("category", "general"))
        flag = fields.get("transformer", "no").lower()
        if flag not in ("yes", "true", "1", "no", "false", "0"):
            cur.err(f"field 'transformer': must be yes, no, true, false, 1 or 0, "
                    f"got {fields['transformer']!r}")
        transformer = (defaults.get("transformer", no_fail)
                       if flag in ("yes", "true", "1") else None)
        if "transformer_rate" in fields or "transformer_repair" in fields:
            base = transformer or defaults.get("transformer", no_fail)
            transformer = ReliabilityParams(
                _get_rate(fields, "transformer_rate", cur, base.failure_rate),
                _get_duration(fields, "transformer_repair", cur, base.repair_time_h))
        customers = _get_float(fields, "customers", cur, 0.0)
        if not customers.is_integer():
            cur.err(f"field 'customers': not a whole number: {fields['customers']!r}")
        buses.append(Bus(id=bus_id, load=load, customers=int(customers),
                         transformer=transformer))

    lines = []
    for lineno, tokens in raw["lines"]:
        cur.lineno = lineno
        line_id = tokens[0]
        fields = _fields(tokens[1:], cur, required=("from", "to", "capacity_mw"),
                         known={"from", "to", "r_ohm", "x_ohm", "r_pu", "x_pu",
                                "capacity_mw", "rate", "repair"})
        if "r_pu" in fields or "x_pu" in fields:
            r_pu = _get_float(fields, "r_pu", cur, 0.0)
            x_pu = _get_float(fields, "x_pu", cur, 0.0)
        else:
            r_pu = _get_float(fields, "r_ohm", cur, 0.0) / z_base
            x_pu = _get_float(fields, "x_ohm", cur, 0.0) / z_base
        rel = defaults.get("line", no_fail)
        if "rate" in fields or "repair" in fields:
            rel = ReliabilityParams(_get_rate(fields, "rate", cur, rel.failure_rate),
                                    _get_duration(fields, "repair", cur, rel.repair_time_h))
        lines.append(Line(
            id=line_id, from_bus=fields.get("from", ""), to_bus=fields.get("to", ""),
            r_pu=r_pu, x_pu=x_pu,
            capacity_mw=_get_float(fields, "capacity_mw", cur, 0.0),
            reliability=rel))

    switchgear = []
    for lineno, tokens in raw["switchgear"]:
        cur.lineno = lineno
        sw_id = tokens[0]
        fields = _fields(tokens[1:], cur, required=("kind", "line", "end"),
                         known={"kind", "line", "end", "state"})
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
    for lineno, tokens in raw["production"]:
        cur.lineno = lineno
        unit_id = tokens[0]
        fields = _fields(tokens[1:], cur, required=("bus", "max_mw"),
                         known={"bus", "min_mw", "max_mw", "profile"})
        production.append(ProductionUnit(
            id=unit_id, bus=fields.get("bus", ""),
            min_mw=_get_float(fields, "min_mw", cur, 0.0),
            max_mw=_get_float(fields, "max_mw", cur, 0.0),
            profile=fields.get("profile")))

    batteries = []
    for lineno, tokens in raw["batteries"]:
        cur.lineno = lineno
        bat_id = tokens[0]
        fields = _fields(tokens[1:], cur, required=("bus", "capacity_mwh", "inverter_mw"),
                         known={"bus", "capacity_mwh", "inverter_mw", "soc_min", "soc_max"})
        batteries.append(Battery(
            id=bat_id, bus=fields.get("bus", ""),
            capacity_mwh=_get_float(fields, "capacity_mwh", cur, 0.0),
            inverter_mw=_get_float(fields, "inverter_mw", cur, 0.0),
            soc_min=_get_float(fields, "soc_min", cur, 0.0),
            soc_max=_get_float(fields, "soc_max", cur, 1.0)))

    controller = None
    sensors = []
    int_switches = []
    for lineno, tokens in raw["ict"]:
        cur.lineno = lineno
        role = tokens[0]
        if role == "controller":
            if len(tokens) < 2:
                cur.err("controller needs an id")
                continue
            fields = _fields(tokens[2:], cur, required=("hw_rate", "hw_repair", "sw_rate"),
                             known={"hw_rate", "hw_repair", "sw_rate", "new_signal",
                                    "reboot", "manual", "p_new_signal", "p_reboot"})
            if controller is not None:
                cur.err("more than one controller")
            controller = Controller(
                id=tokens[1],
                hardware=ReliabilityParams(_get_rate(fields, "hw_rate", cur, 0.0),
                                           _get_duration(fields, "hw_repair", cur, 0.0)),
                software=ReliabilityParams(_get_rate(fields, "sw_rate", cur, 0.0), 0.0),
                software_phases=_phases(fields, cur))
        elif role == "sensor":
            if len(tokens) < 2:
                cur.err("sensor needs an id")
                continue
            fields = _fields(tokens[2:], cur, required=("line", "rate"),
                             known={"line", "rate", "new_signal", "reboot", "manual",
                                    "p_new_signal", "p_reboot"})
            sensors.append(Sensor(
                id=tokens[1], line_ref=fields.get("line", ""),
                reliability=ReliabilityParams(_get_rate(fields, "rate", cur, 0.0),
                                              _get_duration(fields, "manual", cur, 0.0)),
                phases=_phases(fields, cur)))
        elif role == "switch":
            if len(tokens) < 2:
                cur.err("switch needs an id")
                continue
            fields = _fields(tokens[2:], cur, required=("disconnector", "rate", "repair"),
                             known={"disconnector", "rate", "repair"})
            int_switches.append(IntelligentSwitch(
                id=tokens[1], disconnector_ref=fields.get("disconnector", ""),
                reliability=ReliabilityParams(_get_rate(fields, "rate", cur, 0.0),
                                              _get_duration(fields, "repair", cur, 0.0))))
        else:
            cur.err(f"unknown ict role {role!r} (controller/sensor/switch)")

    systems = []
    microgrids = []
    for lineno, tokens in raw["systems"]:
        cur.lineno = lineno
        role = tokens[0]
        if role == "dist":
            if len(tokens) < 2:
                cur.err("dist needs an id")
                continue
            fields = _fields(tokens[2:], cur, required=("root",),
                             known={"root", "feeder_capacity_mw"})
            systems.append(DistributionSystem(
                id=tokens[1], root_bus=fields.get("root", ""),
                feeder_capacity_mw=_get_float(fields, "feeder_capacity_mw", cur)))
        elif role == "microgrid":
            if len(tokens) < 2:
                cur.err("microgrid needs an id")
                continue
            fields = _fields(tokens[2:], cur, required=("via",), known={"via"})
            microgrids.append(Microgrid(id=tokens[1], via_disconnector=fields.get("via", "")))
        else:
            cur.err(f"unknown system role {role!r} (dist/microgrid)")

    return NetworkSpec(
        power_system_id=network["id"],
        base_mva=network["base_mva"], base_kv=network["base_kv"],
        buses=tuple(buses), lines=tuple(lines), switchgear=tuple(switchgear),
        production=tuple(production), batteries=tuple(batteries),
        ict=IctSystem(controller, tuple(sensors), tuple(int_switches)),
        distribution_systems=tuple(systems), microgrids=tuple(microgrids))


def _phases(fields, cur) -> RepairPhases:
    return RepairPhases(
        new_signal_h=_get_duration(fields, "new_signal", cur, 0.0),
        reboot_h=_get_duration(fields, "reboot", cur, 0.0),
        manual_repair_h=_get_duration(fields, "manual", cur, 0.0),
        p_new_signal=_get_float(fields, "p_new_signal", cur, 0.9),
        p_reboot=_get_float(fields, "p_reboot", cur, 0.9))


def serialize_network_spec(spec: NetworkSpec) -> str:
    """Render a spec back to file text; parsing the output reproduces it."""
    out = ["[network]", f"id = {spec.power_system_id}",
           f"base_mva = {spec.base_mva!r}", f"base_kv = {spec.base_kv!r}", ""]

    out.append("[systems]")
    for d in spec.distribution_systems:
        extra = (f" feeder_capacity_mw={d.feeder_capacity_mw!r}"
                 if d.feeder_capacity_mw is not None else "")
        out.append(f"dist {d.id} root={d.root_bus}{extra}")
    for m in spec.microgrids:
        out.append(f"microgrid {m.id} via={m.via_disconnector}")

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
