"""Fixed-point arithmetic for token and cash amounts.

Token quantities (1 token = 1 tCO2e) and stablecoin amounts share one
representation: an integer count of 1e-6 units.  Integer storage makes
conservation checks exact and replay byte-stable; binary floating point is
used only transiently for the exchange's fractional powers, after which the
result is pulled back onto the 1e-6 grid.

Grid rounding is direction-aware.  ``from_float(..., "ceil")`` and
``("floor")`` implement the exchange-conservative policy (a buyer's cash is
rounded up, a seller's proceeds down), but both first *snap* to the nearest
grid point when the float sits within a tiny relative tolerance of it.
Without the snap, a mathematically exact result such as 2100 would come out
of ``pow`` as 2100.0000000000018 and get conservatively rounded to
2100.000001, which is wrong by a full unit of resolution.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from decimal import Decimal

SCALE = 10**6

# Fixed amounts must survive a signed 64-bit micro-unit encoding.
_LIMIT = 2**63

# Relative snap tolerance, in grid units per grid unit: three orders of
# magnitude above double-precision noise, six below the grid itself.
_SNAP_REL = 1e-12
_SNAP_ABS = 1e-6

# How an amount is written.  Decimal also reads "1_000", " 2 " and digits
# outside ASCII, which are no amounts.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _half_even(num: int, den: int) -> int:
    """round(num/den) with ties to even; den > 0, num may be negative."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


class Fixed:
    """An immutable fixed-point amount with 1e-6 resolution."""

    __slots__ = ("micro",)

    def __init__(self, micro: int):
        if not isinstance(micro, int) or isinstance(micro, bool):
            raise TypeError(f"micro units must be int, got {type(micro).__name__}")
        if not -_LIMIT < micro < _LIMIT:
            raise OverflowError("amount exceeds the representable range")
        object.__setattr__(self, "micro", micro)

    def __setattr__(self, name, value):
        raise AttributeError("Fixed amounts are immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, value: Union[str, int, Decimal, "Fixed"]) -> "Fixed":
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

    @classmethod
    def from_float(cls, value: float, rounding: str = "nearest") -> "Fixed":
        """Round a float onto the grid, snapping near-exact values first."""
        if not math.isfinite(value):
            raise ValueError(f"non-finite amount: {value!r}")
        y = value * SCALE
        if not -_LIMIT < y < _LIMIT:
            raise OverflowError("amount exceeds the representable range")
        nearest = round(y)
        if abs(y - nearest) <= max(_SNAP_ABS, abs(y) * _SNAP_REL):
            return cls(int(nearest))
        if rounding == "ceil":
            return cls(math.ceil(y))
        if rounding == "floor":
            return cls(math.floor(y))
        if rounding == "nearest":
            return cls(int(nearest))
        raise ValueError(f"unknown rounding mode {rounding!r}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Fixed") -> "Fixed":
        return _fixed(self.micro + self._micro_of(other))

    def __sub__(self, other: "Fixed") -> "Fixed":
        return _fixed(self.micro - self._micro_of(other))

    def __neg__(self) -> "Fixed":
        return _fixed(-self.micro)

    def __abs__(self) -> "Fixed":
        return _fixed(abs(self.micro))

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
        sign = "-" if self.micro < 0 else ""
        units, frac = divmod(abs(self.micro), SCALE)
        return f"{sign}{units}.{frac:06d}"

    def __repr__(self) -> str:
        return f"Fixed('{self}')"


_new = object.__new__
_set_micro = Fixed.micro.__set__


def _fixed(micro: int) -> Fixed:
    """The amount of `micro` units, an int the package computed itself: only
    the 64-bit range is checked, and `Fixed.__init__`'s type check skipped."""
    if not -_LIMIT < micro < _LIMIT:
        raise OverflowError("amount exceeds the representable range")
    amount = _new(Fixed)
    _set_micro(amount, micro)
    return amount


ZERO = Fixed(0)
ONE = Fixed(SCALE)

# Semantic aliases: tokens (tCO2e) vs stablecoin cash. One representation.
Quantity = Fixed
Money = Fixed
