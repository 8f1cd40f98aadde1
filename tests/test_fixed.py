import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carbonmarket.fixed import SCALE, ZERO, Fixed


def test_parse_and_format():
    from decimal import Decimal
    assert str(Fixed.parse("20")) == "20.000000"
    assert str(Fixed.parse("20.5")) == "20.500000"
    assert str(Fixed.parse("-0.000001")) == "-0.000001"
    assert Fixed.parse(7) == Fixed(7 * SCALE)
    assert Fixed.parse("24.200000").micro == 24_200_000
    assert Fixed.parse(Decimal("1.25")).micro == 1_250_000
    assert Fixed.parse(Fixed(42)) == Fixed(42)


def test_parse_rejects_sub_resolution_and_junk():
    with pytest.raises(ValueError):
        Fixed.parse("1.0000001")
    with pytest.raises(ValueError):
        Fixed.parse("not-a-number")
    with pytest.raises(ValueError):
        Fixed.parse(True)


@pytest.mark.parametrize("text, error, message", [
    # past the 64-bit range however large the exponent, not a decimal trap
    ("1e400000000", OverflowError, "amount exceeds the representable range"),
    ("-1e400000000", OverflowError, "amount exceeds the representable range"),
    ("9223372036854.775808", OverflowError, "amount exceeds the representable range"),
    # below the grid however small, not rounded to zero
    ("1e-400000000", ValueError, "is finer than the 1e-6 resolution"),
    ("1e-7", ValueError, "is finer than the 1e-6 resolution"),
    # more digits than a 28-digit decimal context keeps
    ("1000000000000.00000000000000001", ValueError, "is finer than the 1e-6 resolution"),
    ("nan", ValueError, "not a finite amount"),
    ("-Infinity", ValueError, "not a finite amount"),
])
def test_parse_extreme_exponents_and_non_finite(text, error, message):
    with pytest.raises(error, match=message):
        Fixed.parse(text)


@pytest.mark.parametrize("text, micro", [
    ("5", 5 * SCALE), ("+5", 5 * SCALE), ("-5.25", -5_250_000), (".5", 500_000),
    ("5.", 5 * SCALE), ("1e3", 1000 * SCALE), ("1E+3", 1000 * SCALE), ("25e-6", 25),
])
def test_parse_accepts_plain_ascii_decimals(text, micro):
    assert Fixed.parse(text).micro == micro


# spellings Decimal reads but an amount is not written in
@pytest.mark.parametrize("text", ["1_000", " 2 ", "2\n", "\u0661\u0662", "\uff15",
                                  "1e", "e3", ".", "", "+-1", "0x10"])
def test_parse_refuses_other_spellings(text):
    with pytest.raises(ValueError, match="not a decimal amount"):
        Fixed.parse(text)


def test_parse_keeps_exact_values_at_the_edges():
    assert Fixed.parse("9223372036854.775807").micro == 2**63 - 1
    assert Fixed.parse("-0.000001000").micro == -1
    assert Fixed.parse("0e400000000") == Fixed.parse("0e-400000000") == ZERO


def test_arithmetic_and_comparison():
    a, b = Fixed.parse("2.5"), Fixed.parse("0.75")
    assert a + b == Fixed.parse("3.25")
    assert a - b == Fixed.parse("1.75")
    assert -b == Fixed.parse("-0.75")
    assert abs(Fixed.parse("-3")) == Fixed.parse(3)
    assert b < a <= a
    assert a.is_positive and (-a).is_negative and ZERO.is_zero


def test_mul_half_even():
    # 0.0000005 * 1 -> tie at half a micro-unit, rounds to even (0)
    assert Fixed(1).mul(Fixed(SCALE // 2)).micro == 0
    assert Fixed(3).mul(Fixed(SCALE // 2)).micro == 2  # 1.5 -> 2 (even)


def test_mul_matches_exact_products():
    qty, price = Fixed.parse(125), Fixed.parse(22)
    assert qty.mul(price) == Fixed.parse(2750)


def test_from_float_directed_rounding():
    assert Fixed.from_float(1.00000049, "ceil").micro == 1_000_001
    assert Fixed.from_float(1.00000049, "floor").micro == 1_000_000
    assert Fixed.from_float(1.00000049, "nearest").micro == 1_000_000
    assert Fixed.from_float(-1.00000049, "ceil").micro == -1_000_000
    assert Fixed.from_float(-1.00000049, "floor").micro == -1_000_001


def test_from_float_snaps_near_exact_values():
    # pow drifts an exact 2100 a hair off-grid; conservative rounding must
    # not inflate it by a whole resolution step
    drifted = 10000.0 * ((1.1) ** 2 - 1.0)
    assert drifted != 2100.0
    assert Fixed.from_float(drifted, "ceil") == Fixed.parse(2100)
    assert Fixed.from_float(drifted, "floor") == Fixed.parse(2100)


def test_from_float_rejects_non_finite():
    with pytest.raises(ValueError):
        Fixed.from_float(math.inf)
    with pytest.raises(ValueError):
        Fixed.from_float(math.nan)


def test_overflow_is_an_error():
    with pytest.raises(OverflowError):
        Fixed(2**63)
    with pytest.raises(OverflowError):
        Fixed(2**62) + Fixed(2**62)
    with pytest.raises(OverflowError):
        Fixed.from_float(1e13)  # 1e19 micro-units


MAX_MICRO = 2**63 - 1


@pytest.mark.parametrize("compute", [
    lambda: Fixed(MAX_MICRO) + Fixed(1), lambda: Fixed(-MAX_MICRO) + Fixed(-1),
    lambda: Fixed(MAX_MICRO) - Fixed(-1), lambda: Fixed(-MAX_MICRO) - Fixed(1),
    lambda: Fixed(MAX_MICRO).mul(Fixed(2 * SCALE)),
], ids=["add-up", "add-down", "sub-up", "sub-down", "mul"])
def test_a_result_at_2_63_is_an_overflow(compute):
    with pytest.raises(OverflowError, match="amount exceeds the representable range"):
        compute()


def test_a_result_at_the_range_edge_is_an_amount():
    top = Fixed(MAX_MICRO - 1) + Fixed(1)
    assert type(top) is Fixed and top.micro == MAX_MICRO
    assert (Fixed(-MAX_MICRO + 1) - Fixed(1)).micro == (-top).micro == -MAX_MICRO
    assert abs(-top) == top
    with pytest.raises(AttributeError):
        top.micro = 0


@pytest.mark.parametrize("value", [1, True, 1.0, "1"])
def test_an_amount_adds_and_subtracts_only_amounts(value):
    with pytest.raises(TypeError):
        Fixed(1) + value
    with pytest.raises(TypeError):
        Fixed(1) - value


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_micro_units_are_an_int(value):
    with pytest.raises(TypeError, match="micro units must be int"):
        Fixed(value)


def test_immutability():
    amount = Fixed.parse(5)
    with pytest.raises(AttributeError):
        amount.micro = 0


micros = st.integers(min_value=-(2**62), max_value=2**62)


@given(micros)
def test_str_parse_round_trip(micro):
    amount = Fixed(micro)
    assert Fixed.parse(str(amount)) == amount


@given(st.integers(min_value=-(2**61), max_value=2**61),
       st.integers(min_value=-(2**61), max_value=2**61))
def test_add_sub_inverse(a, b):
    x, y = Fixed(a), Fixed(b)
    assert (x + y) - y == x


@given(st.integers(min_value=-(2**31), max_value=2**31),
       st.integers(min_value=-(2**31), max_value=2**31))
def test_mul_sign_symmetry(a, b):
    x, y = Fixed(a), Fixed(b)
    assert x.mul(y) == y.mul(x)
    assert (-x).mul(y) == -(x.mul(y))
