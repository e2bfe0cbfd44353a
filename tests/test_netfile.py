import pytest

from gridrel.netfile import (
    NetworkFileError, parse_network_file, parse_network_text,
    serialize_network_spec,
)
from gridrel.scenarios import bundled_network_path

TWO_BUS = """
[network]
id = TINY
base_mva = 10
base_kv = 12.66

[systems]
dist DS1 root=A

[buses]
A customers=0
B customers=3 load_mw=0.5 load_mvar=0.1 profile=flat category=general

[lines]
L1 from=A to=B r_ohm=0.0922 x_ohm=0.047 capacity_mw=4 rate=0.07 repair=4h

[switchgear]
CB kind=breaker line=L1 end=from state=closed
"""


def test_minimal_file_parses():
    spec = parse_network_text(TWO_BUS)
    assert len(spec.buses) == 2
    assert len(spec.lines) == 1
    line = spec.lines[0]
    z_base = 12.66 ** 2 / 10
    assert line.r_pu == pytest.approx(0.0922 / z_base)
    assert line.reliability.failure_rate == 0.07
    assert line.reliability.repair_time_h == 4.0


def test_duration_suffixes_with_spaces():
    text = TWO_BUS + """
[ict]
controller C1 hw_rate=0.2 hw_repair=2.5h sw_rate=12 new_signal="2 s" reboot="5 min" manual="0.3 h"
"""
    spec = parse_network_text(text)
    phases = spec.ict.controller.software_phases
    assert phases.new_signal_h == pytest.approx(2 / 3600)
    assert phases.reboot_h == pytest.approx(5 / 60)
    assert phases.manual_repair_h == pytest.approx(0.3)


def test_unknown_section_positioned():
    with pytest.raises(NetworkFileError) as err:
        parse_network_text("[nonsense]\nx=1\n", path="net.txt")
    assert "net.txt:1" in str(err.value)


def test_missing_field_positioned():
    text = TWO_BUS.replace("L1 from=A to=B r_ohm=0.0922 x_ohm=0.047 "
                           "capacity_mw=4 rate=0.07 repair=4h",
                           "L1 from=A to=B")
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text, path="net.txt")
    assert "capacity_mw" in str(err.value)


@pytest.mark.parametrize("old, new, message", [
    ("capacity_mw=4", "capacity_mw=nan", "field 'capacity_mw': not a finite number: 'nan'"),
    ("capacity_mw=4", "capacity_mw=inf", "field 'capacity_mw': not a finite number: 'inf'"),
    ("rate=0.07", "rate=nan", "field 'rate': rate 'nan' is not finite"),
    ("rate=0.07", "rate=inf/yr", "field 'rate': rate 'inf/yr' is not finite"),
    ("repair=4h", "repair=1e999h", "field 'repair': duration '1e999h' is not finite"),
])
def test_non_finite_numbers_positioned(old, new, message):
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(TWO_BUS.replace(old, new), path="net.txt")
    assert err.value.errors == [f"net.txt:15: {message}"]


def test_non_finite_network_field_positioned():
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(TWO_BUS.replace("base_mva = 10", "base_mva = nan"), path="net.txt")
    assert err.value.errors == ["net.txt:4: field 'base_mva': not a finite number: 'nan'"]


def test_errors_are_collected_not_first_only():
    text = TWO_BUS + "\n[batteries]\nBT bus=A\nBT2 bus=B\n"
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text)
    assert len(err.value.errors) >= 2


def test_round_trip_parse_serialize_parse():
    spec = parse_network_file(bundled_network_path())
    text = serialize_network_spec(spec)
    again = parse_network_text(text)
    assert again == spec


def test_round_trip_minimal():
    spec = parse_network_text(TWO_BUS)
    assert parse_network_text(serialize_network_spec(spec)) == spec


def test_bundled_ieee33_contents():
    spec = parse_network_file(bundled_network_path())
    assert len(spec.buses) == 33
    assert len(spec.lines) == 32
    assert any(p.bus == "B15" and p.max_mw == 5.0 for p in spec.production)
    assert any(b.bus == "B30" and b.inverter_mw == 0.5 for b in spec.batteries)
    assert spec.ict.controller is not None
    assert len(spec.ict.sensors) == 32
    assert len(spec.ict.intelligent_switches) == 32
