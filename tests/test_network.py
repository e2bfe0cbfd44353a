import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.netfile import parse_network_text
from gridrel.network import (
    NetworkValidationError, build_network, connected_components,
)

from conftest import CHAIN4

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
    comps = connected_components(chain4, chain4.normal_switch_states())
    assert comps == [("B1", "B2", "B3", "B4")]


def test_connected_components_failed_line_and_open_switches(chain4):
    # five-bus style check on the 4-bus chain: fail L2 and open its disconnector
    states = chain4.normal_switch_states()
    states["D2"] = False
    comps = connected_components(chain4, states, failed_lines={"L2"})
    assert comps == [("B1", "B2"), ("B3", "B4")]


def test_connected_components_all_open(chain4):
    states = {s: False for s in chain4.normal_switch_states()}
    comps = connected_components(chain4, states)
    assert comps == [("B1",), ("B2",), ("B3",), ("B4",)]


def test_downstream_of_ieee33_main_artery(ieee33):
    comps = connected_components(ieee33, ieee33.normal_switch_states(),
                                 failed_lines={"L02"})
    behind = next(c for c in comps if "B03" in c)
    assert len(behind) == 27
    assert "B19" not in behind and "B01" not in behind


def test_sections_on_per_line_disconnectors(ieee33):
    # one disconnector at each line's from-end: a fault takes out the line
    # and its to-bus; the boundary is its own switch plus the children's
    section = ieee33.sections["L02"]
    assert set(section.boundary_disconnectors) == {"D02", "D03", "D22"}


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
    base = ieee33.normal_switch_states()
    n0 = len(connected_components(ieee33, base))
    for sw_id, sw in ieee33.switchgear.items():
        if not sw.normal_closed:
            continue
        states = dict(base)
        states[sw_id] = False
        assert len(connected_components(ieee33, states)) == n0 + 1
