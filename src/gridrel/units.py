"""Time units and duration parsing.

Everything inside the simulator runs on a single common unit (hours).
Durations read from files carry explicit unit suffixes ("2 s", "5 min",
"0.3 h", "1 yr"); conversion factors are exact rationals, so a duration
is rounded once, from its exact value in hours.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

HOURS_PER_YEAR = 8760

# Exact factors: unit -> hours
_UNIT_TO_HOURS = {
    "s": Fraction(1, 3600),
    "sec": Fraction(1, 3600),
    "second": Fraction(1, 3600),
    "seconds": Fraction(1, 3600),
    "min": Fraction(1, 60),
    "minute": Fraction(1, 60),
    "minutes": Fraction(1, 60),
    "h": Fraction(1),
    "hr": Fraction(1),
    "hour": Fraction(1),
    "hours": Fraction(1),
    "d": Fraction(24),
    "day": Fraction(24),
    "days": Fraction(24),
    "yr": Fraction(HOURS_PER_YEAR),
    "y": Fraction(HOURS_PER_YEAR),
    "year": Fraction(HOURS_PER_YEAR),
    "years": Fraction(HOURS_PER_YEAR),
}

_DURATION_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$")


class UnitError(ValueError):
    """Unknown unit, or malformed duration or rate string."""


def _factor(unit: str) -> Fraction:
    try:
        return _UNIT_TO_HOURS[unit.lower()]
    except KeyError:
        raise UnitError(f"unknown time unit {unit!r}") from None


def finite_float(text) -> float:
    """`float(text)`, or ValueError("not a finite number: <text>") for any
    text that is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def duration_hours(text) -> float:
    """Hours in a number, or in a duration string: "2 s", "5min", "0.3 h",
    "4", "1 yr". A bare number means hours."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return finite_float(text)
    m = _DURATION_RE.match(str(text))
    if not m:
        raise UnitError(f"malformed duration {text!r}")
    number, unit = m.groups()
    factor = _factor(unit or "h")
    # in hours float() rounds the exact decimal once, as the exact path does;
    # a zero may differ from it in sign, and an inf must be refused, so both go on
    if factor == 1:
        hours = float(number)
        if 0.0 < abs(hours) < math.inf:
            return hours
    if "e" in number or "E" in number:
        # far past the float range, where the exact value's exponent may take seconds,
        # the order decides: 10**(order - 1) <= |number| < 10**order, factors within 10**±4
        mantissa, _, exponent = number.lower().partition("e")
        whole, _, decimals = mantissa.lstrip("+-").partition(".")
        first = next((i for i, d in enumerate(whole + decimals) if int(d)), None)
        order = -math.inf if first is None else len(whole) - first + int(exponent)
        if order < -330:  # the exact value rounds to a zero of its sign; 0 is +0.0
            return -0.0 if first is not None and number[0] == "-" else 0.0
        if order > 320:
            raise UnitError(f"duration {text!r} is not finite")
    try:
        return float(Fraction(number) * factor)
    except OverflowError:  # the exact value is past the float range
        raise UnitError(f"duration {text!r} is not finite") from None


def parse_rate_per_year(text) -> float:
    """Parse a failure rate like "0.07/yr" or a bare number (per year)."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        rate = float(text)
    else:
        num, per, unit = str(text).strip().partition("/")
        try:
            rate = float(num)
        except ValueError:
            raise UnitError(f"malformed rate {text!r}") from None
        if per:
            rate = rate * HOURS_PER_YEAR / float(_factor(unit.strip()))
    if not math.isfinite(rate):
        raise UnitError(f"rate {text!r} is not finite")
    return rate
