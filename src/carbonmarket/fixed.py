"""Fixed-point arithmetic for token and cash amounts.

Token quantities (1 token = 1 tCO2e) and stablecoin amounts share one
representation: an integer count of 1e-6 units.  Integer storage makes
conservation checks exact and replay byte-stable.  Every amount here is
exact: parsing refuses a spelling finer than the grid, and only `mul`
rounds, half-even in integers.  Binary floating point enters only in the
exchange's fractional powers, whose results `exchange.to_grid` rounds onto
the grid; `to_float` is the view that feeds them.  This module alone
bounds, refuses and writes an amount (a signed 64-bit count of micro-units):
`fits` refuses one in the words of `OUT_OF_RANGE`, `micro_text` writes one.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from decimal import Decimal

SCALE = 10**6

# Fixed amounts must survive a signed 64-bit micro-unit encoding.
_LIMIT = 2**63
OUT_OF_RANGE = "amount exceeds the representable range"

# How an amount is written: sign, whole part, fraction and exponent, with a
# digit in the whole part or the fraction.  Decimal also reads "1_000",
# " 2 " and digits outside ASCII, which are no amounts.
_DECIMAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)\.?([0-9]*)(?:[eE]([+-]?[0-9]+))?")

# The exponents a decimal spelling may carry, as `decimal` reads it: past
# them it refuses the spelling.  With e = the exponent less the fraction's
# length, it needs MIN_ETINY <= e, the adjusted exponent (e plus the
# coefficient's digits after leading zeros, less one) at most MAX_EMAX, and
# at most 19 significant exponent digits.
_MAX_EMAX = 999999999999999999
_MIN_ETINY = -1999999999999999997
_EXPONENT_DIGITS = 19


def _half_even(num: int, den: int) -> int:
    """round(num/den) with ties to even; den > 0, num may be negative."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def fits(micro: int) -> int:
    """`micro`, refused with `OverflowError` past the signed 64-bit range.
    A float compares exactly against the bound, so one is checked too."""
    if not -_LIMIT < micro < _LIMIT:
        raise OverflowError(OUT_OF_RANGE)
    return micro


def micro_text(micro: int) -> str:
    """`micro` units written as an amount: sign, whole units, six decimals."""
    if micro < 0:
        return f"-{micro_text(-micro)}"
    digits = str(micro).zfill(7)
    return f"{digits[:-6]}.{digits[-6:]}"


class Fixed:
    """An immutable fixed-point amount with 1e-6 resolution."""

    __slots__ = ("micro",)

    def __init__(self, micro: int):
        if not isinstance(micro, int) or isinstance(micro, bool):
            raise TypeError(f"micro units must be int, got {type(micro).__name__}")
        object.__setattr__(self, "micro", fits(micro))

    def __setattr__(self, name, value):
        raise AttributeError("Fixed amounts are immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, value: Union[str, int, Decimal, "Fixed"]) -> "Fixed":
        """Parse an exact decimal literal, the text `str(value)` writes;
        finer than 1e-6 is an error.  The text is read by `_DECIMAL` in
        integer arithmetic, and a value or message is the one `decimal`
        gives for the same spelling."""
        if isinstance(value, bool):
            raise ValueError("booleans are not amounts")
        text = str(value)
        match = _DECIMAL.fullmatch(text)
        if match is None:
            raise _refusal(value, text)
        sign, whole, fraction, exponent = match.groups()
        e = -len(fraction)
        if exponent is not None:
            # stripped first: int() refuses a spelling of more than 4300 digits
            significant = exponent.lstrip("+-").lstrip("0") or "0"
            if len(significant) > _EXPONENT_DIGITS:
                raise ValueError(f"not a decimal amount: {value!r}")
            e += -int(significant) if exponent[0] == "-" else int(significant)
        digits = (whole + fraction).lstrip("0")
        # the adjusted exponent: where the leading digit sits
        magnitude = e + len(digits) - 1 if digits else e
        if e < _MIN_ETINY or magnitude > _MAX_EMAX:
            raise ValueError(f"not a decimal amount: {value!r}")
        if not digits:
            return _fixed(0)
        if magnitude > 12:          # 1e13 and up: past 2**63 micro-units
            raise OverflowError(OUT_OF_RANGE)
        # trailing zeros move into the exponent, which then counts from the
        # 1e-6 grid; what is left has at most 19 digits when on the grid
        coefficient = digits.rstrip("0")
        e += len(digits) - len(coefficient) + 6
        if e < 0:
            raise ValueError(f"amount {value!r} is finer than the 1e-6 resolution")
        micro = int(coefficient) * 10**e
        return _fixed(-micro if sign == "-" else micro)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Fixed") -> "Fixed":
        return _fixed(self.micro + self._micro_of(other))

    def __sub__(self, other: "Fixed") -> "Fixed":
        return _fixed(self.micro - self._micro_of(other))

    def __neg__(self) -> "Fixed":
        return _fixed(-self.micro)

    def mul(self, other: "Fixed") -> "Fixed":
        """Product of two amounts (e.g. quantity x unit price), half-even."""
        return _fixed(_half_even(self.micro * other.micro, SCALE))

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fixed) and self.micro == other.micro

    def __lt__(self, other: "Fixed") -> bool:
        return self.micro < self._micro_of(other)

    def __le__(self, other: "Fixed") -> bool:
        return self.micro <= self._micro_of(other)

    def __gt__(self, other: "Fixed") -> bool:
        return self.micro > self._micro_of(other)

    def __ge__(self, other: "Fixed") -> bool:
        return self.micro >= self._micro_of(other)

    def __hash__(self) -> int:
        return hash(("Fixed", self.micro))

    @staticmethod
    def _micro_of(other: "Fixed") -> int:
        if not isinstance(other, Fixed):
            raise TypeError(f"expected Fixed, got {type(other).__name__}")
        return other.micro

    # -- views ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.micro == 0

    @property
    def is_positive(self) -> bool:
        return self.micro > 0

    @property
    def is_negative(self) -> bool:
        return self.micro < 0

    def to_float(self) -> float:
        return self.micro / SCALE

    def __str__(self) -> str:
        return micro_text(self.micro)

    def __repr__(self) -> str:
        return f"Fixed('{self}')"


def _refusal(value, text: str) -> ValueError:
    """The refusal of `text`, written for `value`, which `_DECIMAL` does not
    match: a spelling `decimal` reads as NaN or an infinity is not finite,
    any other is not a decimal amount.  Only a refusal loads `decimal`."""
    from decimal import Decimal, InvalidOperation
    try:
        finite = Decimal(text).is_finite()
    except InvalidOperation:
        finite = True
    return ValueError(f"not a {'decimal' if finite else 'finite'} amount: {value!r}")


_new = object.__new__
_set_micro = Fixed.micro.__set__


def _fixed(micro: int) -> Fixed:
    """The amount of `micro` units, an int the package computed itself: only
    the 64-bit range is checked, and `Fixed.__init__`'s type check skipped."""
    if not -_LIMIT < micro < _LIMIT:
        raise OverflowError(OUT_OF_RANGE)
    amount = _new(Fixed)
    _set_micro(amount, micro)
    return amount


ZERO = Fixed(0)
ONE = Fixed(SCALE)
