"""Constant-reserve-fraction exchange: pricing curve and quotes.

The exchange holds a stablecoin reserve C that is kept equal to a constant
fraction F of the token market cap:  C = F * s * P(s).  Together with the
marginal-pricing identity P(s) = dC/ds this pins the whole curve relative to
an anchor point (s0, C0):

    P(s) = C0 / (F * s) * (s / s0)^(1/F)          spot price
    C(s) = C0 * (s / s0)^(1/F)                    reserve law
    t    = C0 * ((1 + e/s0)^(1/F) - 1)            cash moved for e tokens
    e    = s0 * ((t/C0 + 1)^F - 1)                tokens moved for t cash

Quotes anchor the formulas at the exchange's *current* supply and reserve,
which always lie on the curve (within rounding), so consecutive quotes are
path independent.  Raw results are computed in double precision via
expm1/log1p (no cancellation for small trades), and `to_grid` rounds them
onto the 1e-6 grid in the exchange-conservative direction: cash the user
pays rounds up, cash or tokens the user receives round down, tokens the user
surrenders round up.  The direction yields to a snap: a leg of y micro-units
within max(1e-6, |y| * 1e-12) micro-units of a grid point rounds to that
point, whichever side it lies on, so a snapped leg can favour the user by up
to that bound.  Past about 5e5 units a leg the bound reaches half a
micro-unit and every leg rounds to nearest.  At every magnitude, two
guarantees are exact, in integers: a sale of the whole supply pays exactly
the reserve and no sale pays more, and a withdrawal of the whole reserve
surrenders exactly the supply and none surrenders more.  `fixed.py` bounds,
refuses and writes every amount: `to_grid` checks a result with `fits`.

Sign conventions follow the quote object: ``tokens_delta`` is positive when
the caller buys tokens, ``cash_delta`` is positive when the caller pays
cash, and the two always carry the same sign.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, NamedTuple

from .errors import ErrorCode, LedgerError
from .fixed import ONE, OUT_OF_RANGE, SCALE, ZERO, Fixed, _fixed, fits


class Quote(NamedTuple):
    """One priced trade: its token leg and its cash leg, nothing else.

    Both deltas are nonzero and share the same sign (buy: both positive).
    A quote carries no post-trade price: a trade is refused only for its own
    legs, and the spot price after it, when wanted, is `spot_price` anchored
    at the pre-trade supply and reserve, taken at the new supply."""

    tokens_delta: Fixed
    cash_delta: Fixed


def validate_fraction(fraction: Fixed) -> Fixed:
    if not ZERO < fraction <= ONE:
        raise LedgerError(ErrorCode.INVALID_FRACTION,
                          f"reserve fraction must lie in (0, 1], got {fraction}")
    return fraction


def validate_anchor(fraction: Fixed, supply: Fixed, reserve: Fixed):
    """Check a curve anchor (F, s0, C0) before any curve math runs on it."""
    validate_fraction(fraction)
    if supply <= ZERO:
        raise LedgerError(ErrorCode.INVALID_SUPPLY, "baseline supply must be positive")
    if reserve <= ZERO:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, "baseline reserve must be positive")


# ---------------------------------------------------------------------------
# Raw curve math (double precision, unrounded)
# ---------------------------------------------------------------------------

def spot_price_raw(fraction: float, supply0: float, reserve0: float,
                   supply: float) -> float:
    """P(s) against the anchor (s0, C0)."""
    return reserve0 / (fraction * supply) * (supply / supply0) ** (1.0 / fraction)


def cash_for_tokens_raw(fraction: float, supply: float, reserve: float,
                        tokens: float) -> float:
    """Cash moved when trading `tokens` at anchor (supply, reserve).

    Positive tokens: cash the buyer must pay.  Negative tokens: negative
    cash, i.e. proceeds owed to the seller.  tokens == -supply drains the
    reserve exactly.
    """
    if tokens <= -supply:
        return -reserve
    return reserve * math.expm1(math.log1p(tokens / supply) / fraction)


def tokens_for_cash_raw(fraction: float, supply: float, reserve: float,
                        cash: float) -> float:
    """Tokens moved when trading `cash` at anchor (supply, reserve).

    Positive cash buys tokens; negative cash (a withdrawal) sells them.
    cash == -reserve retires the whole supply exactly.
    """
    if cash <= -reserve:
        return -supply
    return supply * math.expm1(fraction * math.log1p(cash / reserve))


# ---------------------------------------------------------------------------
# Grid-rounded quotes
# ---------------------------------------------------------------------------

# The snap window, in grid units per grid unit of the leg: three orders of
# magnitude above double-precision noise, six below the grid itself.
_SNAP_REL = 1e-12
_SNAP_ABS = 1e-6


def to_grid(raw: float, rounding: Callable[[float], int]) -> Fixed:
    """`raw` units on the 1e-6 grid.  A value of y micro-units within
    max(_SNAP_ABS, |y| * _SNAP_REL) of a grid point snaps to it, so an exact
    2100 that `pow` returns as 2100.0000000000018 does not round up a whole
    unit; any other is rounded by `rounding`: `math.ceil`, `math.floor` or
    `round`.  A non-finite `raw`, or one past the 64-bit range, is refused
    before any rounding."""
    if not math.isfinite(raw):
        raise ValueError(f"non-finite amount: {raw!r}")
    y = fits(raw * SCALE)
    nearest = round(y)
    if abs(y - nearest) <= max(_SNAP_ABS, abs(y) * _SNAP_REL):
        return _fixed(nearest)
    return _fixed(rounding(y))


def spot_price(fraction: Fixed, supply0: Fixed, reserve0: Fixed, supply: Fixed) -> Fixed:
    """Spot price at `supply` against the anchor (s0, C0), grid-rounded."""
    if supply <= ZERO:
        raise LedgerError(ErrorCode.INVALID_SUPPLY, f"supply must be positive, got {supply}")
    with _priced("the spot price at supply {}", supply):
        raw = spot_price_raw(fraction.to_float(), supply0.to_float(),
                             reserve0.to_float(), supply.to_float())
        return to_grid(raw, round)


@contextmanager
def _priced(what: str, amount: Fixed):
    """Turn an overflow in the curve math, or `to_grid`'s refusal of a
    non-finite or out-of-range result, into a typed rejection naming `what`,
    a format with one field for `amount`.  The name is formatted only then:
    a quote runs on every trade.  An overflow reads as `to_grid`'s does,
    not in the words `**` or `math.expm1` give it."""
    try:
        yield
    except (OverflowError, ValueError) as exc:
        reason = OUT_OF_RANGE if isinstance(exc, OverflowError) else exc
        raise LedgerError(ErrorCode.INVALID_AMOUNT,
                          f"{what.format(amount)} cannot be priced: {reason}") from exc


def _check_live(supply: Fixed, reserve: Fixed):
    """The curve prices a trade only from a positive supply and reserve: it
    divides by both.  A loaded state, or a `setPrice` whose F * s * P rounds
    to zero, can leave the reserve empty with tokens out."""
    if supply.micro <= 0:
        raise LedgerError(ErrorCode.INVALID_SUPPLY, "exchange has no outstanding supply")
    if reserve.micro <= 0:
        raise LedgerError(ErrorCode.RESERVE_EXHAUSTED, "the exchange reserve is empty")


def quote_buy_tokens(fraction: Fixed, supply: Fixed, reserve: Fixed, tokens: Fixed) -> Quote:
    """Cash required (or owed) for a signed token amount.

    Rounding: a buyer's cash rounds up, a seller's proceeds round down, and
    never past the reserve.  A sale of the whole supply pays the reserve.  A
    sell so small that its proceeds round to zero is rejected rather than
    quoted with a one-sided zero leg.
    """
    # compared as ints: this runs on every trade
    if tokens.micro == 0:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, "token amount must be nonzero")
    _check_live(supply, reserve)
    if tokens.micro < -supply.micro:
        raise LedgerError(ErrorCode.INVALID_AMOUNT,
                          f"cannot sell {-tokens} tokens against a supply of {supply}")
    if tokens.micro == -supply.micro:
        return Quote(tokens, -reserve)
    with _priced("a trade of {} tokens", tokens):
        raw = cash_for_tokens_raw(fraction.to_float(), supply.to_float(),
                                  reserve.to_float(), tokens.to_float())
        cash = to_grid(raw, math.ceil)
        if cash.micro == 0:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "trade too small to price")
    if cash.micro < -reserve.micro:
        cash = -reserve
    return Quote(tokens, cash)


def quote_spend_cash(fraction: Fixed, supply: Fixed, reserve: Fixed, cash: Fixed) -> Quote:
    """Tokens received (or surrendered) for a signed cash amount.

    Rounding: tokens received round down, tokens surrendered round up, and
    never past the supply.  A withdrawal of the whole reserve surrenders the
    supply.  A spend so small that the tokens received round to zero is
    rejected.
    """
    if cash.micro == 0:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, "cash amount must be nonzero")
    _check_live(supply, reserve)
    if cash.micro < -reserve.micro:
        raise LedgerError(ErrorCode.RESERVE_EXHAUSTED,
                          f"cannot withdraw {-cash} from a reserve of {reserve}")
    if cash.micro == -reserve.micro:
        return Quote(-supply, cash)
    with _priced("a trade of {} cash", cash):
        raw = tokens_for_cash_raw(fraction.to_float(), supply.to_float(),
                                  reserve.to_float(), cash.to_float())
        tokens = to_grid(raw, math.floor)
        if tokens.micro == 0:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "trade too small to price")
    if tokens.micro < -supply.micro:
        tokens = -supply
    return Quote(tokens, cash)
