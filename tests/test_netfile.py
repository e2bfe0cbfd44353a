import math
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.netfile import (
    NetworkFileError, _split_row, parse_network_file, parse_network_text,
    serialize_network_spec,
)
from gridrel.network import (
    BREAKER, DISCONNECTOR, Battery, Bus, Controller, DistributionSystem, IctSystem,
    IntelligentSwitch, Line, LoadSpec, NetworkSpec, NetworkValidationError,
    ProductionUnit, Sensor, Switchgear, build_network,
)
from gridrel.scenarios import bundled_network_path
from gridrel.stochastic import ReliabilityParams, RepairPhases

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


@pytest.mark.parametrize("old, new", [
    ("id = TINY", "id = TINY # the feeder"),
    ("base_mva = 10", "base_mva = 10 # MVA"),
    ("[buses]", "[buses] # all of them"),
])
def test_network_rows_and_section_headers_take_a_comment(old, new):
    assert parse_network_text(TWO_BUS.replace(old, new)) == parse_network_text(TWO_BUS)


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


@pytest.mark.parametrize("old, new, message", [
    ("base_mva = 10", "base_mva = 0", "4: field 'base_mva': must be > 0"),
    ("base_mva = 10", "base_mva = -10", "4: field 'base_mva': must be > 0"),
    # with ohm impedances a zero voltage base would divide by zero
    ("base_kv = 12.66", "base_kv = 0", "5: field 'base_kv': must be > 0"),
])
def test_non_positive_base_positioned(old, new, message):
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(TWO_BUS.replace(old, new), path="net.txt")
    assert err.value.errors == [f"net.txt:{message}"]


@pytest.mark.parametrize("base_kv, shown", [("1e200", "inf"), ("1e-200", "0.0")])
def test_an_impedance_base_out_of_range_positioned_at_each_ohm_line(base_kv, shown):
    # base_kv^2 / base_mva overflows or underflows to 0: an ohm line cannot be
    # converted, a per-unit line needs no base
    text = TWO_BUS.replace("base_kv = 12.66", f"base_kv = {base_kv}").replace(
        "\n\n[switchgear]", "\nL2 from=A to=B r_pu=0.01 x_pu=0.01 capacity_mw=4\n\n[switchgear]")
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text, path="net.txt")
    assert err.value.errors == [
        f"net.txt:15: impedance base base_kv^2 / base_mva = {shown}: must be finite and > 0"]


def test_an_impedance_past_the_float_range_is_refused():
    # base_kv = 1e-160 gives a base of 1e-321 MVA, so 0.0922 ohm is inf p.u.
    spec = parse_network_text(TWO_BUS.replace("base_kv = 12.66", "base_kv = 1e-160"))
    assert spec.lines[0].r_pu == math.inf
    with pytest.raises(NetworkValidationError) as err:
        build_network(spec)
    assert err.value.violations == ["line 'L1': impedance must be finite and >= 0"]


@pytest.mark.parametrize("old, new, message", [
    ("B customers=3", "B customers=25.7", "12: field 'customers': not a whole number: '25.7'"),
    ("A customers=0", "A customers=0 transformer=on",
     "11: field 'transformer': must be yes, no, true, false, 1 or 0, got 'on'"),
])
def test_bus_fields_read_strictly(old, new, message):
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(TWO_BUS.replace(old, new), path="net.txt")
    assert err.value.errors == [f"net.txt:{message}"]


@pytest.mark.parametrize("fields, customers, transformer", [
    ("customers=3.0 transformer=TRUE", 3, True), ("customers=3 transformer=1", 3, True),
    ("customers=3 transformer=yes", 3, True), ("customers=3 transformer=No", 3, False),
    ("customers=3 transformer=false", 3, False), ("customers=3 transformer=0", 3, False),
])
def test_bus_fields_accept_whole_counts_and_each_flag(fields, customers, transformer):
    spec = parse_network_text(TWO_BUS.replace("B customers=3", f"B {fields}"))
    bus = spec.buses[1]
    assert bus.customers == customers and type(bus.customers) is int
    assert (bus.transformer is not None) == transformer


CONTROLLER = ("controller C1 hw_rate=0.2 hw_repair=2.5h sw_rate=12 new_signal=2s "
              "reboot=5min manual=0.3h p_new_signal=0.9 p_reboot=0.9")
SENSOR = "sensor S1 line=L1 rate=0.023 new_signal=2s reboot=5min manual=2h p_reboot=0.9"


@pytest.mark.parametrize("old, new, message", [
    ("new_signal=2s reboot=5min manual=0.3h", "new_signal=-2s reboot=5min manual=0.3h",
     "21: field 'new_signal': must be >= 0"),
    ("reboot=5min manual=0.3h", "reboot=-5min manual=0.3h", "21: field 'reboot': must be >= 0"),
    ("p_new_signal=0.9", "p_new_signal=1.5", "21: field 'p_new_signal': must be in [0, 1]"),
    ("p_reboot=0.9\n", "p_reboot=-0.1\n", "21: field 'p_reboot': must be in [0, 1]"),
    ("p_new_signal=0.9", "p_new_signal=nan",
     "21: field 'p_new_signal': not a finite number: 'nan'"),
    ("manual=2h", "manual=-2h", "22: field 'manual': must be >= 0"),
    ("manual=2h p_reboot=0.9", "manual=2h p_reboot=2", "22: field 'p_reboot': must be in [0, 1]"),
])
def test_ict_recovery_fields_are_range_checked_at_their_line(old, new, message):
    text = TWO_BUS + "\n[ict]\n" + CONTROLLER + "\n" + SENSOR + "\n"
    parse_network_text(text)
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text.replace(old, new, 1), path="net.txt")
    assert err.value.errors == [f"net.txt:{message}"]


def test_ict_range_errors_are_collected_with_the_others():
    text = (TWO_BUS.replace("capacity_mw=4", "capacity_mw=x") + "\n[ict]\n"
            + CONTROLLER.replace("new_signal=2s", "new_signal=-2s")
            .replace("p_reboot=0.9", "p_reboot=9") + "\n"
            + SENSOR.replace("rate=0.023", "rate=q") + "\n")
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text, path="net.txt")
    assert err.value.errors == [
        "net.txt:15: field 'capacity_mw': not a finite number: 'x'",
        "net.txt:21: field 'new_signal': must be >= 0",
        "net.txt:21: field 'p_reboot': must be in [0, 1]",
        "net.txt:22: field 'rate': malformed rate 'q'"]


def test_a_sensor_manual_phase_is_read_once():
    # it is both the sensor's repair time and its manual recovery phase
    text = TWO_BUS + "\n[ict]\n" + CONTROLLER + "\n" + SENSOR + "\n"
    with pytest.raises(NetworkFileError) as err:
        parse_network_text(text.replace("manual=2h", "manual=abc"), path="net.txt")
    assert err.value.errors == ["net.txt:22: field 'manual': malformed duration 'abc'"]


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


_ID = st.text("abcxyzAB019_.-", min_size=1, max_size=4)
_NUMBER = st.floats(allow_nan=False, allow_infinity=False)
_RELIABILITY = st.builds(ReliabilityParams, _NUMBER, _NUMBER)
_PHASES = st.builds(RepairPhases, *[st.floats(0, 1e6)] * 3, *[st.floats(0, 1)] * 2)


def _sensor(ident, line, rate, phases):
    # the reader takes a sensor's repair time from its manual phase
    return Sensor(ident, line, ReliabilityParams(rate, phases.manual_repair_h), phases)


def _controller(ident, hardware, sw_rate, phases):
    # the software's repair is its staged recovery
    return Controller(ident, hardware, ReliabilityParams(sw_rate, 0.0), phases)


def _tuples(strategy, min_size=0):
    return st.lists(strategy, min_size=min_size, max_size=3).map(tuple)


_SPECS = st.builds(
    NetworkSpec,
    power_system_id=_ID,
    base_mva=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    base_kv=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    buses=_tuples(st.builds(
        Bus, _ID, st.none() | st.builds(LoadSpec, _NUMBER, _NUMBER, _ID, _ID),
        st.integers(0, 10 ** 6), st.none() | _RELIABILITY), min_size=1),
    lines=_tuples(st.builds(Line, _ID, _ID, _ID, _NUMBER, _NUMBER, _NUMBER, _RELIABILITY)),
    switchgear=_tuples(st.builds(Switchgear, _ID, st.sampled_from([BREAKER, DISCONNECTOR]),
                                 _ID, st.sampled_from(["from", "to"]), st.booleans())),
    production=_tuples(st.builds(ProductionUnit, _ID, _ID, _NUMBER, _NUMBER, st.none() | _ID)),
    batteries=_tuples(st.builds(Battery, _ID, _ID, _NUMBER, _NUMBER, _NUMBER, _NUMBER)),
    ict=st.builds(
        IctSystem, st.none() | st.builds(_controller, _ID, _RELIABILITY, _NUMBER, _PHASES),
        _tuples(st.builds(_sensor, _ID, _ID, _NUMBER, _PHASES)),
        _tuples(st.builds(IntelligentSwitch, _ID, _ID, _RELIABILITY))),
    distribution_systems=_tuples(
        st.builds(DistributionSystem, _ID, _ID, st.none() | _NUMBER), min_size=1))


@settings(max_examples=100, deadline=None)
@given(spec=_SPECS)
def test_round_trip_generated_specs(spec):
    """Every section and optional field survives writing and reading back."""
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


# whitespace shlex splits on (space, tab) beside whitespace it keeps in a token
# (no-break space, vertical tab), a comment, and ASCII and non-ASCII letters
_ROW_CHARS = " \t#=\xa0\x0b.-_0a9Zé名Ωß"


@settings(max_examples=300, deadline=None)
@given(line=st.text(_ROW_CHARS, max_size=30))
def test_a_row_without_quoting_splits_as_shlex_splits_it(line):
    assert _split_row(line) == shlex.split(line, comments=True)


@settings(max_examples=300, deadline=None)
@given(line=st.text(_ROW_CHARS + "'\"\\", max_size=30))
def test_a_row_with_quoting_splits_or_fails_as_shlex_does(line):
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _split_row(line)
    else:
        assert _split_row(line) == tokens
