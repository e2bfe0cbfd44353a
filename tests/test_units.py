import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrel.units import UnitError, duration_hours, finite_float, parse_rate_per_year


def test_parse_suffixes():
    assert duration_hours("2 s") == pytest.approx(2 / 3600)
    assert duration_hours("5min") == pytest.approx(5 / 60)
    assert duration_hours("0.3 h") == pytest.approx(0.3)
    assert duration_hours("4") == 4.0
    assert duration_hours("1 yr") == 8760.0


def test_bad_duration():
    with pytest.raises(UnitError, match="malformed duration"):
        duration_hours("five minutes")
    with pytest.raises(UnitError, match="unknown time unit"):
        duration_hours("3 fortnights")
    with pytest.raises(UnitError, match="not finite"):
        duration_hours("1e999 h")
    with pytest.raises(UnitError, match="not finite"):
        duration_hours("1e400")
    with pytest.raises(ValueError, match="not a finite number"):
        duration_hours(float("inf"))


@pytest.mark.parametrize("text", ["abc", "", "nan", "-inf", "1e999", "1,5"])
def test_finite_float_refuses_with_one_message(text):
    with pytest.raises(ValueError) as err:
        finite_float(text)
    assert str(err.value) == f"not a finite number: {text!r}"


def test_rate_per_year():
    assert parse_rate_per_year("0.07/yr") == pytest.approx(0.07)
    assert parse_rate_per_year(12) == 12.0
    assert parse_rate_per_year("1/h") == pytest.approx(8760.0)


@pytest.mark.parametrize("text", ["nan", "inf/yr", "-inf", float("nan"), "1e308/s"])
def test_rate_per_year_must_be_finite(text):
    with pytest.raises(UnitError, match="not finite"):
        parse_rate_per_year(text)


@pytest.mark.parametrize("text", ["q", "abc/yr", "/yr", ""])
def test_rate_per_year_that_is_not_a_number_is_malformed(text):
    with pytest.raises(UnitError) as err:
        parse_rate_per_year(text)
    assert str(err.value) == f"malformed rate {text!r}"


def test_duration_hours_accepts_numbers():
    assert duration_hours(2.5) == 2.5
    assert duration_hours("30 min") == 0.5


# numbers as the duration pattern takes them, and the shortest reprs of floats,
# subnormals and the largest finite ones among them
_NUMBERS = st.from_regex(r"[+-]?\d{1,25}(\.\d{1,25})?([eE][+-]?\d{1,3})?", fullmatch=True) \
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)


@settings(max_examples=500, deadline=None)
@given(number=_NUMBERS, unit=st.sampled_from(["", "h", " hr", "hour", " Hours"]))
def test_hours_are_the_exact_value_rounded_once(number, unit):
    try:
        exact = float(Fraction(number))
    except OverflowError:
        with pytest.raises(UnitError, match="is not finite"):
            duration_hours(number + unit)
    else:  # hex tells -0.0 from 0.0
        assert duration_hours(number + unit).hex() == exact.hex()


@pytest.mark.parametrize("text, hours", [
    ("-0", 0.0), ("-0.0 h", 0.0), ("1e-400", 0.0), ("-1e-330", -0.0)])
def test_a_zero_duration_in_hours_keeps_the_exact_sign(text, hours):
    assert duration_hours(text).hex() == hours.hex()


_HOURS_PER_UNIT = {"s": Fraction(1, 3600), "min": Fraction(1, 60), "h": Fraction(1),
                   "d": Fraction(24), "yr": Fraction(8760)}


# exponents that put a number, leading zeros and all, on either side of
# either bound of the range check, in every unit, so each side meets the
# exact path
@settings(max_examples=500, deadline=None)
@given(number=st.builds("{}e{}".format,
                        st.from_regex(r"[+-]?0{0,30}\d{1,25}(\.0{0,30}\d{1,25})?",
                                      fullmatch=True),
                        st.integers(270, 345) | st.integers(-360, -280)),
       unit=st.sampled_from(sorted(_HOURS_PER_UNIT)))
def test_durations_far_from_one_are_the_exact_value_rounded_once(number, unit):
    try:
        exact = float(Fraction(number) * _HOURS_PER_UNIT[unit])
    except OverflowError:
        with pytest.raises(UnitError, match="is not finite"):
            duration_hours(f"{number} {unit}")
    else:
        assert duration_hours(f"{number} {unit}").hex() == exact.hex()


@pytest.mark.parametrize("text, hours", [
    ("1e1000000 h", None), ("1e4000000 h", None), ("-25.5e4000000 s", None),
    ("-1e-4000000 h", -0.0), ("1e-4000000 yr", 0.0), ("-0.000e4000000 min", 0.0)])
def test_a_far_exponent_is_decided_without_the_exact_value(text, hours):
    start = time.perf_counter()
    if hours is None:
        with pytest.raises(UnitError, match="is not finite"):
            duration_hours(text)
    else:
        assert duration_hours(text).hex() == hours.hex()
    assert time.perf_counter() - start < 0.1  # the exact path took 0.17-1.7 s
