from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from perceptqa.numformat import (
    canon_number,
    divide,
    is_canonical_number,
    jsonable,
    strip_decimal,
)


def test_canon_drops_trailing_zeros():
    assert canon_number(Decimal("1.500")) == "1.5"
    assert canon_number(Decimal("30.50")) == "30.5"
    assert canon_number(Decimal("100")) == "100"


def test_canon_never_uses_exponent_form():
    assert canon_number(Decimal("1E+2")) == "100"
    assert canon_number(Decimal("5E+3")) == "5000"
    assert canon_number(Decimal("2.5E+1")) == "25"


def test_canon_collapses_negative_zero():
    assert canon_number(Decimal("-0")) == "0"
    assert canon_number(Decimal("-0.000")) == "0"


def test_strip_rejects_non_finite():
    with pytest.raises(ValueError):
        strip_decimal(Decimal("Infinity"))
    with pytest.raises(ValueError):
        strip_decimal(Decimal("NaN"))


def test_divide_exact_quotients_survive():
    assert divide(Decimal(1), Decimal(8)) == Decimal("0.125")
    assert divide(Decimal(30), Decimal(4)) == Decimal("7.5")
    assert divide(Decimal(10), Decimal(5)) == Decimal(2)


def test_divide_rounds_half_up_at_four_places():
    assert canon_number(divide(Decimal(1), Decimal(3))) == "0.3333"
    assert canon_number(divide(Decimal(2), Decimal(3))) == "0.6667"
    # 1/32 = 0.03125: the trailing 5 rounds up
    assert canon_number(divide(Decimal(1), Decimal(32))) == "0.0313"
    # negative quotients round away from zero
    assert canon_number(divide(Decimal(-1), Decimal(32))) == "-0.0313"


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide(Decimal(1), Decimal(0))


def test_jsonable_integral_becomes_int():
    assert jsonable(Decimal("565023")) == 565023
    assert isinstance(jsonable(Decimal("4.0")), int)


def test_jsonable_fractional_round_trips():
    v = jsonable(Decimal("30.5"))
    assert isinstance(v, float)
    assert Decimal(repr(v)) == Decimal("30.5")


def test_is_canonical_number():
    assert is_canonical_number("30.5")
    assert is_canonical_number("-12")
    assert is_canonical_number("0")
    assert not is_canonical_number("30.50")
    assert not is_canonical_number("007")
    assert not is_canonical_number("1e3")
    assert not is_canonical_number("-0")
    assert not is_canonical_number("abc")
    assert not is_canonical_number("NaN")


def test_parse_round_trips_canonical_text():
    for text in ("449329", "30.5", "0.0313", "-7.25"):
        assert canon_number(Decimal(text)) == text


_grid = st.integers(min_value=-(10 ** 7), max_value=10 ** 7)


@given(_grid, st.integers(min_value=0, max_value=4))
def test_canon_is_idempotent(units, places):
    value = Decimal(units).scaleb(-places)
    text = canon_number(value)
    assert is_canonical_number(text)
    assert canon_number(Decimal(text)) == text


@given(_grid, st.integers(min_value=1, max_value=10 ** 4))
def test_divide_matches_fraction_rounding(units, denom):
    """Half-away-from-zero at four places, checked against exact fractions."""
    got = divide(Decimal(units), Decimal(denom))
    q = Fraction(units, denom)
    sign = -1 if q < 0 else 1
    scaled = abs(q) * 10 ** 4
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if rem * 2 >= scaled.denominator:
        whole += 1
    assert got == Decimal(sign * whole).scaleb(-4)
