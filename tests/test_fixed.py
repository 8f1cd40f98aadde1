import re

import pytest
from hypothesis import Phase, given, settings
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
    assert b < a <= a
    assert a.is_positive and (-a).is_negative and ZERO.is_zero


def test_mul_half_even():
    # 0.0000005 * 1 -> tie at half a micro-unit, rounds to even (0)
    assert Fixed(1).mul(Fixed(SCALE // 2)).micro == 0
    assert Fixed(3).mul(Fixed(SCALE // 2)).micro == 2  # 1.5 -> 2 (even)


def test_mul_matches_exact_products():
    qty, price = Fixed.parse(125), Fixed.parse(22)
    assert qty.mul(price) == Fixed.parse(2750)


def test_overflow_is_an_error():
    with pytest.raises(OverflowError):
        Fixed(2**63)
    with pytest.raises(OverflowError):
        Fixed(2**62) + Fixed(2**62)


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


# `Fixed.parse` as it read amounts through `decimal`, kept verbatim as the
# reference the integer-arithmetic parser must agree with.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def decimal_parse(cls, value):
    """Parse an exact decimal literal, the text `str(value)` writes;
    finer than 1e-6 is an error."""
    if isinstance(value, bool):
        raise ValueError("booleans are not amounts")
    # imported here: checking a chain log makes every amount from its
    # micro-units and never parses text
    from decimal import Decimal, InvalidOperation
    text = str(value)
    try:
        number = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal amount: {value!r}") from exc
    if not number.is_finite():
        raise ValueError(f"not a finite amount: {value!r}")
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal amount: {value!r}")
    # magnitude first: the exact ratio has as many digits as the exponent
    magnitude = number.adjusted() if number else 0
    if magnitude > 12:          # 1e13 and up: past 2**63 micro-units
        raise OverflowError("amount exceeds the representable range")
    if magnitude >= -6:
        num, den = number.as_integer_ratio()
        micro, rest = divmod(num * SCALE, den)
        if not rest:
            return cls(micro)
    raise ValueError(f"amount {value!r} is finer than the 1e-6 resolution")


def parsed(parse, value):
    """The micro-units `parse` reads from `value`, or its exception's type
    and message."""
    try:
        return parse(value).micro
    except Exception as exc:
        return type(exc), str(exc)


# the exponent limits of `decimal`: largest adjusted exponent, smallest exponent
MAX_EMAX, MIN_ETINY = 999999999999999999, -1999999999999999997

signs = st.sampled_from(["", "+", "-"])
zeros = st.sampled_from(["", "0", "00", "000"])
# digit runs, now and then one longer than the 4300 digits int() reads
long_runs = st.builds(str.__mul__, st.sampled_from("019"), st.integers(4290, 4400))
short_runs = st.one_of(st.text("0123456789", max_size=20),
                       st.sampled_from(["0", "1", "5", "25", "999"]))
runs = st.integers(0, 7).flatmap(lambda k: long_runs if k == 0 else short_runs)


def exponent_text(draw, value: int) -> str:
    """`value` written as an exponent, with leading zeros, now and then more
    than int() reads."""
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    padding = "0" * draw(st.sampled_from([0, 0, 1, 3, 4400]))
    return draw(st.sampled_from("eE")) + sign + padding + str(abs(value))


@st.composite
def spellings(draw) -> str:
    """An amount as a scenario may spell it: sign, whole part with leading
    zeros, fraction with trailing zeros, in the `5`, `5.`, `.5` and `5.5`
    forms, and an exponent, small, near 2^63 or 10^19, or a long digit run;
    now and then with one stray character (whitespace, `_`, a non-ASCII
    digit) put in."""
    whole, fraction = draw(zeros) + draw(runs), draw(runs) + draw(zeros)
    text = draw(signs) + draw(st.sampled_from([whole, whole + ".", "." + fraction,
                                               whole + "." + fraction]))
    exponent = draw(st.integers(0, 3))
    if exponent == 1:
        text += exponent_text(draw, draw(st.integers(-30, 30)))
    elif exponent == 2:
        edge = draw(st.sampled_from([2**63, -(2**63), 10**19, -(10**19)]))
        text += exponent_text(draw, edge + draw(st.integers(-2, 2)))
    elif exponent == 3:
        text += draw(st.sampled_from("eE")) + draw(signs) + draw(long_runs)
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from([" ", "\n", "\t", "_", "\u0661", "\uff15", "e", "."]))
        text = text[:at] + stray + text[at:]
    return text


@st.composite
def edge_spellings(draw) -> str:
    """A short coefficient, zero a third of the time, with the exponent that
    puts its exponent (the written one less the fraction's digits) or its
    adjusted exponent at a limit of `decimal` or of the grid, or one off."""
    coefficient = draw(st.sampled_from(["0", "000", "0.00", "1", "10", "1.5", "00.100",
                                        "1." + "0" * 19 + "1", "12345678901234",
                                        "9223372036854.775807"]))
    after_point = len(coefficient.partition(".")[2])
    leading = (len(coefficient.replace(".", "").lstrip("0")) or 1) - 1
    adjusted, edge = draw(st.sampled_from([(False, MIN_ETINY), (True, MAX_EMAX),
                                           (True, 12), (False, -6)]))
    value = edge + draw(st.integers(-1, 1)) + after_point - (leading if adjusted else 0)
    return draw(signs) + coefficient + exponent_text(draw, value)


non_finite = st.builds(str.__add__, signs,
                       st.sampled_from(["nan", "NaN", "sNaN", "snan", "nan12", "inf",
                                        "Inf", "Infinity", "-infinity", "INFINITY"]))
amount_inputs = st.one_of(
    spellings(), edge_spellings(), non_finite,
    st.integers(-(10**20), 10**20), st.just(10**4400),
    st.decimals(), st.integers(-(2**63) + 1, 2**63 - 1).map(Fixed))


# no shrinking: a failing spelling is reported as drawn, in well under a second
@settings(max_examples=300, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(amount_inputs)
def test_parse_agrees_with_decimal(value):
    assert parsed(Fixed.parse, value) == parsed(lambda text: decimal_parse(Fixed, text), value)
