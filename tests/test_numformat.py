from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def _reference_strip_decimal(value: Decimal) -> Decimal:
    """strip_decimal as first written, reading the exponent from as_tuple()."""
    if not value.is_finite():
        raise ValueError(f"non-finite decimal: {value}")
    normalized = value.normalize()
    exponent = normalized.as_tuple().exponent
    if isinstance(exponent, int) and exponent > 0:
        normalized = normalized.quantize(Decimal(1))
    if normalized == 0:
        return Decimal(0)
    return normalized


def _outcome(fn, value):
    try:
        return str(fn(value))
    except (ValueError, InvalidOperation) as exc:
        return type(exc)


_DECIMALS = (
    st.builds(lambda units, exp: Decimal(units).scaleb(exp),
              st.integers(min_value=-(10 ** 28), max_value=10 ** 28),
              st.integers(min_value=-40, max_value=40))
    | st.builds(lambda digits, zeros, exp: Decimal(f"{digits}{'0' * zeros}E{exp}"),
                st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=-35, max_value=35))
    | st.decimals(allow_nan=True, allow_infinity=True)
    | st.sampled_from([Decimal(t) for t in (
        "0", "-0", "0E+5", "-0.000", "100", "1E+2", "1.500", "-7.250",
        "9" * 28, "9" * 29, "1" + "0" * 27, "1" + "0" * 28,
        "9.99999999999999999999999999999", "NaN", "sNaN", "Infinity",
        "-Infinity")]))


@settings(max_examples=500, deadline=None)
@given(_DECIMALS)
def test_strip_decimal_matches_the_as_tuple_reference(value):
    assert _outcome(strip_decimal, value) == _outcome(
        _reference_strip_decimal, value)

