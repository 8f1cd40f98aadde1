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
expm1/log1p (no cancellation for small trades) and then rounded onto the
1e-6 grid in the exchange-conservative direction: cash the user pays rounds
up, cash or tokens the user receives round down, tokens the user surrenders
round up.  That one-sided policy is what keeps the reserve solvent.

Sign conventions follow the quote object: ``tokens_delta`` is positive when
the caller buys tokens, ``cash_delta`` is positive when the caller pays
cash, and the two always carry the same sign.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from .errors import ErrorCode, LedgerError
from .fixed import ONE, ZERO, Fixed, Money, Quantity


class Quote(NamedTuple):
    """One priced trade: its token leg and its cash leg, nothing else.

    Both deltas are nonzero and share the same sign (buy: both positive).
    A quote carries no post-trade price: a trade is refused only for its own
    legs, and the spot price after it, when wanted, is `spot_price` anchored
    at the pre-trade supply and reserve, taken at the new supply."""

    tokens_delta: Quantity
    cash_delta: Money


def validate_fraction(fraction: Fixed) -> Fixed:
    if not ZERO < fraction <= ONE:
        raise LedgerError(ErrorCode.INVALID_FRACTION,
                          f"reserve fraction must lie in (0, 1], got {fraction}")
    return fraction


def validate_anchor(fraction: Fixed, supply: Quantity, reserve: Money):
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

def spot_price(fraction: Fixed, supply0: Quantity, reserve0: Money,
               supply: Quantity) -> Money:
    """Spot price at `supply` against the anchor (s0, C0), grid-rounded."""
    if supply <= ZERO:
        raise LedgerError(ErrorCode.INVALID_SUPPLY, f"supply must be positive, got {supply}")
    with _priced(f"the spot price at supply {supply}"):
        raw = spot_price_raw(fraction.to_float(), supply0.to_float(),
                             reserve0.to_float(), supply.to_float())
        return Fixed.from_float(raw, "nearest")


@contextmanager
def _priced(what: str):
    """Turn an overflow or a non-finite result of the curve math, or of
    rounding it onto the grid, into a typed rejection."""
    try:
        yield
    except (OverflowError, ValueError) as exc:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, f"{what} cannot be priced: {exc}") from exc


def _check_live(supply: Quantity, reserve: Money):
    """The curve prices a trade only from a positive supply and reserve: it
    divides by both.  A loaded state, or a `setPrice` whose F * s * P rounds
    to zero, can leave the reserve empty with tokens out."""
    if supply <= ZERO:
        raise LedgerError(ErrorCode.INVALID_SUPPLY, "exchange has no outstanding supply")
    if reserve <= ZERO:
        raise LedgerError(ErrorCode.RESERVE_EXHAUSTED, "the exchange reserve is empty")


def quote_buy_tokens(fraction: Fixed, supply: Quantity, reserve: Money,
                     tokens: Quantity) -> Quote:
    """Cash required (or owed) for a signed token amount.

    Rounding: a buyer's cash rounds up, a seller's proceeds round down.  A
    sell so small that its proceeds round to zero is rejected rather than
    quoted with a one-sided zero leg.
    """
    if tokens.is_zero:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, "token amount must be nonzero")
    _check_live(supply, reserve)
    if tokens.is_negative and -tokens > supply:
        raise LedgerError(ErrorCode.INVALID_AMOUNT,
                          f"cannot sell {-tokens} tokens against a supply of {supply}")
    with _priced(f"a trade of {tokens} tokens"):
        raw = cash_for_tokens_raw(fraction.to_float(), supply.to_float(),
                                  reserve.to_float(), tokens.to_float())
        cash = Fixed.from_float(raw, "ceil")
        if cash.is_zero:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "trade too small to price")
    return Quote(tokens, cash)


def quote_spend_cash(fraction: Fixed, supply: Quantity, reserve: Money,
                     cash: Money) -> Quote:
    """Tokens received (or surrendered) for a signed cash amount.

    Rounding: tokens received round down, tokens surrendered round up.  A
    spend so small that the tokens received round to zero is rejected.
    """
    if cash.is_zero:
        raise LedgerError(ErrorCode.INVALID_AMOUNT, "cash amount must be nonzero")
    _check_live(supply, reserve)
    if cash.is_negative and -cash > reserve:
        raise LedgerError(ErrorCode.RESERVE_EXHAUSTED,
                          f"cannot withdraw {-cash} from a reserve of {reserve}")
    with _priced(f"a trade of {cash} cash"):
        raw = tokens_for_cash_raw(fraction.to_float(), supply.to_float(),
                                  reserve.to_float(), cash.to_float())
        tokens = Fixed.from_float(raw, "floor")
        if tokens.is_zero:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "trade too small to price")
    return Quote(tokens, cash)
