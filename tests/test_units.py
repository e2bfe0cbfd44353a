import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrel.units import (
    Duration, UnitError, duration_hours, parse_duration, parse_rate_per_year,
)


def test_parse_suffixes():
    assert parse_duration("2 s").hours == pytest.approx(2 / 3600)
    assert parse_duration("5min").hours == pytest.approx(5 / 60)
    assert parse_duration("0.3 h").hours == pytest.approx(0.3)
    assert parse_duration("4").hours == 4.0
    assert parse_duration("1 yr").hours == 8760.0


def test_bad_duration():
    with pytest.raises(UnitError):
        parse_duration("five minutes")
    with pytest.raises(UnitError):
        parse_duration("3 fortnights")
    with pytest.raises(UnitError, match="not finite"):
        duration_hours("1e999 h")
    with pytest.raises(ValueError, match="not a finite number"):
        duration_hours(float("inf"))


def test_rate_per_year():
    assert parse_rate_per_year("0.07/yr") == pytest.approx(0.07)
    assert parse_rate_per_year(12) == 12.0
    assert parse_rate_per_year("1/h") == pytest.approx(8760.0)


@pytest.mark.parametrize("text", ["nan", "inf/yr", "-inf", float("nan"), "1e308/s"])
def test_rate_per_year_must_be_finite(text):
    with pytest.raises(UnitError, match="not finite"):
        parse_rate_per_year(text)


def test_duration_hours_accepts_numbers():
    assert duration_hours(2.5) == 2.5
    assert duration_hours("30 min") == 0.5


@given(value=st.fractions(min_value=0, max_value=10_000),
       unit=st.sampled_from(["s", "min", "h", "d", "yr"]),
       via=st.sampled_from(["s", "min", "h", "d", "yr"]))
def test_round_trip_is_identity(value, unit, via):
    d = Duration(value, unit)
    assert d.to(via).to(unit).value == value
