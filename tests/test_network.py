from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.netfile import parse_network_file, parse_network_text
from gridrel.network import (
    BREAKER, DISCONNECTOR, Bus, DistributionSystem, Line, Microgrid,
    NetworkModel, NetworkSpec, NetworkValidationError, Switchgear,
    build_network, connected_components,
)
from gridrel.scenarios import (
    SCENARIOS, apply_scenario, bundled_network_path, bundled_validation_path,
)

from conftest import CHAIN4, TIE
from oracles import reference_forest

MINIMAL = """
[network]
id = MIN
[systems]
dist DS1 root=A
[buses]
A customers=0
B customers=5 load_mw=0.1
[lines]
L1 from=A to=B r_pu=0.01 x_pu=0.01 capacity_mw=1
[switchgear]
CB kind=breaker line=L1 end=from state=closed
"""


def test_minimal_network_builds():
    model = build_network(parse_network_text(MINIMAL))
    assert model.bus_ids == ("A", "B")
    assert model.tree_lines == frozenset({"L1"})
    assert model.breaker_of_system["DS1"] == "CB"


@pytest.mark.parametrize("field", ["base_mva", "base_kv"])
@pytest.mark.parametrize("value", [0.0, -10.0, float("nan")])
def test_non_positive_bases_rejected(field, value):
    spec = replace(parse_network_text(MINIMAL), **{field: value})
    with pytest.raises(NetworkValidationError) as err:
        build_network(spec)
    assert err.value.violations == [f"{field} must be > 0"]


def test_cycle_is_a_radiality_error():
    text = MINIMAL.replace(
        "[lines]",
        "[lines]\nL2 from=A to=B r_pu=0.01 x_pu=0.01 capacity_mw=1\n")
    with pytest.raises(NetworkValidationError) as err:
        build_network(parse_network_text(text))
    assert any("cycle" in v or "radial" in v for v in err.value.violations)


def test_dangling_reference_and_missing_breaker():
    text = """
[network]
id = BAD
[systems]
dist DS1 root=A
[buses]
A customers=0
[lines]
L1 from=A to=NOPE r_pu=0.01 x_pu=0.01 capacity_mw=1
"""
    with pytest.raises(NetworkValidationError) as err:
        build_network(parse_network_text(text))
    text_all = "\n".join(err.value.violations)
    assert "unknown bus" in text_all


def test_duplicate_ids_rejected():
    text = MINIMAL.replace("B customers=5 load_mw=0.1",
                           "B customers=5 load_mw=0.1\nB customers=1")
    with pytest.raises(NetworkValidationError) as err:
        build_network(parse_network_text(text))
    assert any("duplicate bus id 'B'" in v for v in err.value.violations)


def test_production_unit_and_battery_ids_must_differ():
    # the engine keys every generator's output by its id in one dict
    text = MINIMAL + ("[production]\nX bus=B min_mw=0 max_mw=1\n"
                      "[batteries]\nX bus=B capacity_mwh=1 inverter_mw=0.5\n")
    with pytest.raises(NetworkValidationError) as err:
        build_network(parse_network_text(text))
    assert err.value.violations == ["production unit and battery share the id 'X'"]
    build_network(parse_network_text(text.replace("\nX bus=B cap", "\nY bus=B cap")))


def _chain4_with_ict(*units):
    return CHAIN4 + "[ict]\n" + "".join(unit + "\n" for unit in (
        "controller CTRL hw_rate=0.2 hw_repair=2.5h sw_rate=0 new_signal=2s "
        "reboot=5min manual=0.3h p_new_signal=0 p_reboot=0", *units))


def _sensor(ident, line):
    return (f"sensor {ident} line={line} rate=0.023 new_signal=2s reboot=5min "
            "manual=2h p_new_signal=0 p_reboot=0")


def _switch(ident, disconnector):
    return f"switch {ident} disconnector={disconnector} rate=0.03 repair=2h"


def _violations(text):
    with pytest.raises(NetworkValidationError) as err:
        build_network(parse_network_text(text))
    return err.value.violations


def test_ict_ids_are_unique_across_the_controller_sensors_and_switches():
    # ICT units share one failure table, keyed by id
    build_network(parse_network_text(_chain4_with_ict(_sensor("S1", "L1"),
                                                      _switch("IS1", "D1"))))
    assert _violations(_chain4_with_ict(_sensor("X", "L1"), _switch("X", "D1"))) == [
        "duplicate ICT id 'X'"]
    assert _violations(_chain4_with_ict(_sensor("CTRL", "L1"))) == [
        "duplicate ICT id 'CTRL'"]
    assert _violations(_chain4_with_ict(_switch("CTRL/sw", "D1"))) == [
        "duplicate ICT id 'CTRL/sw'"]


def test_a_line_has_at_most_one_sensor():
    assert _violations(_chain4_with_ict(_sensor("S1", "L2"), _sensor("S2", "L2"))) == [
        "line 'L2' has more than one sensor"]


def test_a_disconnector_has_at_most_one_intelligent_switch():
    assert _violations(_chain4_with_ict(_switch("IS1", "D2"), _switch("IS2", "D2"))) == [
        "disconnector 'D2' has more than one intelligent switch"]


def test_ict_ids_differ_from_line_and_transformer_ids():
    # scripted faults address lines, transformers and ICT units by bare id
    text = _chain4_with_ict(_sensor("L3", "L1"), _switch("B3", "D1"), _sensor("B2", "L2"))
    assert _violations(text) == ["ICT id 'L3' is also a line or transformer bus id"]
    text = text.replace("B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general",
                        "B3 customers=10 load_mw=0.3 load_mvar=0.07 category=general "
                        "transformer_rate=0.1 transformer_repair=8h")
    assert _violations(text) == ["ICT id 'B3' is also a line or transformer bus id",
                                 "ICT id 'L3' is also a line or transformer bus id"]


def test_connected_components_all_closed(chain4):
    comps = connected_components(chain4, {})
    assert comps == [("B1", "B2", "B3", "B4")]


def test_connected_components_failed_line_and_open_switches(chain4):
    # five-bus style check on the 4-bus chain: fail L2 and open its disconnector
    comps = connected_components(chain4, {"D2": False}, failed_lines={"L2"})
    assert comps == [("B1", "B2"), ("B3", "B4")]


def test_connected_components_all_open(chain4):
    comps = connected_components(chain4, dict.fromkeys(chain4.switchgear, False))
    assert comps == [("B1",), ("B2",), ("B3",), ("B4",)]


def test_downstream_of_ieee33_main_artery(ieee33):
    comps = connected_components(ieee33, {}, failed_lines={"L02"})
    behind = next(c for c in comps if "B03" in c)
    assert len(behind) == 27
    assert "B19" not in behind and "B01" not in behind


def test_sections_on_per_line_disconnectors(ieee33):
    # one disconnector at each line's from-end: a fault takes out the line
    # and its to-bus; the boundary is its own switch plus the children's
    assert ieee33.sections["L02"] == ("D02", "D03", "D22")
    for line_id, line in ieee33.lines.items():
        children = [l for b, l in ieee33.feed_line.items()
                    if ieee33.tree_parent[b] == line.to_bus]
        # L01's from end carries CB1 before D01, and a line end yields its
        # first switch only
        own = [] if line_id == "L01" else ["D" + line_id[1:]]
        assert ieee33.sections[line_id] == tuple(sorted(own + ["D" + l[1:] for l in children]))


def test_ieee33_shape(ieee33):
    assert len(ieee33.bus_ids) == 33
    assert len(ieee33.line_ids) == 32
    assert ieee33.production["WIND1"].bus == "B15"
    assert ieee33.batteries["BAT1"].bus == "B30"


@settings(max_examples=60, deadline=None)
@given(open_mask=st.lists(st.booleans(), min_size=33, max_size=33),
       failed_mask=st.lists(st.booleans(), min_size=32, max_size=32))
def test_components_always_partition(ieee33, open_mask, failed_mask):
    states = {sw: keep for sw, keep in zip(sorted(ieee33.switchgear), open_mask)}
    failed = {l for l, f in zip(ieee33.line_ids, failed_mask) if f}
    comps = connected_components(ieee33, states, failed)
    seen = [b for comp in comps for b in comp]
    assert sorted(seen) == sorted(ieee33.bus_ids)
    assert len(seen) == len(set(seen))


def test_opening_one_switch_splits_one_component(ieee33):
    n0 = len(connected_components(ieee33, {}))
    for sw_id, sw in ieee33.switchgear.items():
        if not sw.normal_closed:
            continue
        assert len(connected_components(ieee33, {sw_id: False})) == n0 + 1


# -- the feeder forest against the former walk and checks ------------------

FOREST = ("tree_order", "tree_parent", "feed_line", "system_of_bus", "tree_lines",
          "breaker_of_system")


def _check_forest(spec):
    """`build_network`'s forest and violations equal `reference_forest`'s;
    the forest of an invalid spec is compared on a model built without
    validation."""
    expected = reference_forest(NetworkModel(spec))
    try:
        model = build_network(spec)
        violations = []
    except NetworkValidationError as err:
        model, violations = NetworkModel(spec), err.violations
    assert violations == expected["violations"]
    assert {name: getattr(model, name) for name in FOREST} == {
        name: expected[name] for name in FOREST}
    return violations


def _bundled_and_test_specs():
    ieee33 = parse_network_file(bundled_network_path())
    yield "ieee33", ieee33
    for case in SCENARIOS:
        yield case, apply_scenario(ieee33, case)
    yield "validation6", parse_network_file(bundled_validation_path())
    for name, text in (("CHAIN4", CHAIN4), ("TIE", TIE), ("MINIMAL", MINIMAL)):
        yield name, parse_network_text(text)


@pytest.mark.parametrize("name, spec", list(_bundled_and_test_specs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_forest_of_the_bundled_and_test_networks_matches_the_reference(name, spec):
    assert _check_forest(spec) == []


@st.composite
def feeder_variants(draw):
    """One or two random radial feeders, each line with a disconnector at its
    from end and each root line a breaker, then any of: a closed line making
    a cycle, a line in parallel, a tie joining the two feeders (closed or
    open), another system on a root or on any bus, a second breaker at a
    root, an orphan bus, normally open disconnectors and a microgrid."""
    n = draw(st.integers(2, 7))
    # shuffled ids, so id order differs from the walk's order
    bus_ids = draw(st.permutations([f"B{i}" for i in range(n)]))
    line_names = iter(draw(st.permutations([f"L{i:02d}" for i in range(n + 4)])))
    n_feeders = draw(st.integers(1, min(2, n // 2)))
    roots = bus_ids[:n_feeders]
    feeder = {r: i for i, r in enumerate(roots)}
    lines, switchgear = [], []

    def add_line(a, b, closed=True):
        line = Line(next(line_names), a, b, 0.01, 0.01, 1.0)
        lines.append(line)
        switchgear.append(Switchgear("D" + line.id, DISCONNECTOR, line.id, "from", closed))
        return line

    for i in range(n_feeders, n):
        parent = bus_ids[draw(st.integers(0, i - 1))]
        feeder[bus_ids[i]] = feeder[parent]
        add_line(parent, bus_ids[i])
    for root in roots:
        root_line = next((l for l in lines if root in (l.from_bus, l.to_bus)), None)
        if root_line is not None:
            switchgear.append(Switchgear("CB" + root, BREAKER, root_line.id, "from"))
    systems = [DistributionSystem(f"DS{i}", r) for i, r in enumerate(roots)]
    buses = list(bus_ids)

    pair = st.tuples(st.sampled_from(bus_ids), st.sampled_from(bus_ids))
    if draw(st.booleans()):  # a closed line between two buses of one feeder
        a, b = draw(pair.filter(lambda p: p[0] != p[1] and feeder[p[0]] == feeder[p[1]]))
        add_line(a, b)
    if draw(st.booleans()):
        twin = draw(st.sampled_from(lines))
        add_line(twin.from_bus, twin.to_bus)
    if n_feeders == 2 and draw(st.booleans()):
        a, b = draw(pair.filter(lambda p: feeder[p[0]] != feeder[p[1]]))
        add_line(a, b, closed=draw(st.booleans()))
    if draw(st.booleans()):  # another system, on a root or on any bus
        systems.append(DistributionSystem("DS9", draw(st.sampled_from(bus_ids))))
    for root in draw(st.sets(st.sampled_from(roots))):  # a second breaker
        at_root = [l for l in lines if root in (l.from_bus, l.to_bus)]
        if at_root:
            switchgear.append(Switchgear("CB9" + root, BREAKER,
                                         draw(st.sampled_from(at_root)).id,
                                         draw(st.sampled_from(["from", "to"]))))
    if draw(st.booleans()):
        buses.append("ORPHAN")
        if draw(st.booleans()):  # reached over a normally open line only
            add_line(draw(st.sampled_from(bus_ids)), "ORPHAN", closed=False)
    opened = draw(st.sets(st.sampled_from(
        [s.id for s in switchgear if s.kind == DISCONNECTOR]), max_size=2))
    switchgear = [replace(s, normal_closed=False) if s.id in opened else s
                  for s in switchgear]
    microgrids = ()
    closed_discs = [s for s in switchgear if s.kind == DISCONNECTOR and s.normal_closed]
    if closed_discs and draw(st.booleans()):
        microgrids = (Microgrid("MG", draw(st.sampled_from(closed_discs)).id),)
    return NetworkSpec(buses=tuple(Bus(b) for b in buses), lines=tuple(lines),
                       switchgear=tuple(switchgear), distribution_systems=tuple(systems),
                       microgrids=microgrids)


@settings(max_examples=300, deadline=None)
@given(spec=feeder_variants())
def test_forest_and_violations_match_the_reference_on_feeder_variants(spec):
    _check_forest(spec)
