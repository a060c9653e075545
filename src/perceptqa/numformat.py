"""Canonical rendering of exact decimal values.

Gold answers are computed with ``decimal.Decimal`` and rendered in one
minimal form so that string equality is meaningful: no exponent, no
trailing fractional zeros, no thousands separators, and ``-0`` collapsed
to ``0``.  Non-terminating division results are rounded half-up to four
fractional digits before rendering.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP

DIV_QUANTUM = Decimal("0.0001")
_ZERO = Decimal(0)
_ONE = Decimal(1)


def strip_decimal(value: Decimal) -> Decimal:
    """Drop trailing fractional zeros without switching to exponent form."""
    if not value.is_finite():
        raise ValueError(f"non-finite decimal: {value}")
    normalized = value.normalize()
    if normalized == 0:
        return _ZERO
    if normalized == normalized.to_integral_value():
        # normalize() writes 100 as 1E+2; quantizing spells it out
        return normalized.quantize(_ONE)
    return normalized


def canon_number(value: Decimal) -> str:
    """Render a decimal in its canonical minimal form."""
    return str(strip_decimal(value))


def divide(numerator: Decimal, denominator: Decimal) -> Decimal:
    """Exact quotient when it terminates within four fractional digits,
    otherwise rounded half-up to four fractional digits."""
    if denominator == 0:
        raise ZeroDivisionError("division by zero")
    quotient = (numerator / denominator).quantize(DIV_QUANTUM, rounding=ROUND_HALF_UP)
    return strip_decimal(quotient)


def jsonable(value: Decimal) -> int | float:
    """Convert a decimal to the JSON number that prints its canonical form.

    Integral values become ints so no ".0" appears.  Fractional values
    become floats; Python's shortest-repr float printing reproduces the
    decimal digits exactly for the short grids used here, and this is
    checked rather than assumed.
    """
    value = strip_decimal(value)
    if value == value.to_integral_value():
        return int(value)
    f = float(value)
    if Decimal(repr(f)) != value:
        raise ValueError(f"decimal does not survive the float round-trip: {value}")
    return f


def is_canonical_number(text: str) -> bool:
    try:
        value = Decimal(text)
    except Exception:
        return False
    if not value.is_finite():
        return False
    return canon_number(value) == text
