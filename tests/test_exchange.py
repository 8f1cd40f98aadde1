"""Exchange curve oracles: finite differences, numerical integration,
inversion, path independence, and the conservative-rounding quote layer."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from carbonmarket import ErrorCode, LedgerError
from carbonmarket.exchange import (ExchangeState, cash_for_tokens_raw,
                                   quote_buy_tokens, quote_spend_cash,
                                   spot_price, spot_price_raw)
from carbonmarket.fixed import ZERO, Fixed

from conftest import LedgerDriver, fx, standard_market


def state(fraction, s0, c0) -> ExchangeState:
    return ExchangeState(fraction=fx(fraction), reserve=fx(c0),
                         baseline_supply=fx(s0), baseline_reserve=fx(c0))


def reserve_at_raw(fraction: float, supply0: float, reserve0: float,
                   supply: float) -> float:
    """Oracle reserve law: C(s) against the anchor (s0, C0)."""
    return reserve0 * (supply / supply0) ** (1.0 / fraction)


def central_difference_price(f, s0, c0, s, h):
    """Independent oracle: the price is the derivative of the reserve law."""
    return (reserve_at_raw(f, s0, c0, s + h) - reserve_at_raw(f, s0, c0, s - h)) / (2 * h)


# -- spot price ---------------------------------------------------------------

def test_spot_price_at_baseline():
    assert spot_price(state("0.5", 1000, 10000), fx(1000)) == fx(20)


def test_spot_price_constant_for_full_reserve_fraction():
    s = state("1", 1000, 10000)
    for supply in (1, 10, 1000, 500000):
        assert spot_price(s, fx(supply)) == fx(10)


def test_spot_price_off_baseline_matches_derivative_oracle():
    # oracle first: dC/ds at s=1100 for F=0.5, s0=1000, C0=10000
    oracle = central_difference_price(0.5, 1000.0, 10000.0, 1100.0, 0.11)
    assert oracle == pytest.approx(22.0, rel=1e-9)
    assert spot_price(state("0.5", 1000, 10000), fx(1100)) == fx(22)


def test_spot_price_rejects_nonpositive_supply():
    with pytest.raises(LedgerError) as err:
        spot_price(state("0.5", 1000, 10000), ZERO)
    assert err.value.code is ErrorCode.INVALID_SUPPLY


def test_derivative_matches_price_across_states():
    rng = random.Random(7)
    for _ in range(200):
        f = rng.uniform(0.1, 1.0)
        s0 = rng.uniform(1e2, 1e6)
        c0 = rng.uniform(1e2, 1e8)
        s = s0 * rng.uniform(0.5, 2.0)
        h = 1e-4 * s
        oracle = central_difference_price(f, s0, c0, s, h)
        price = spot_price_raw(f, s0, c0, s)
        assert price == pytest.approx(oracle, rel=1e-6)


def test_reserve_is_fraction_of_market_cap():
    # C(s) = F * s * P(s), to high relative accuracy
    rng = random.Random(11)
    for _ in range(200):
        f = rng.uniform(0.1, 1.0)
        s0 = rng.uniform(1e2, 1e6)
        c0 = rng.uniform(1e2, 1e8)
        s = s0 * rng.uniform(0.5, 2.0)
        lhs = reserve_at_raw(f, s0, c0, s)
        rhs = f * s * spot_price_raw(f, s0, c0, s)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_spot_price_monotonicity():
    convex = state("0.5", 1000, 10000)
    flat = state("1", 1000, 10000)
    grid = [fx(v) for v in (200, 500, 900, 1000, 1500, 4000)]
    prices = [spot_price(convex, s) for s in grid]
    assert all(a < b for a, b in zip(prices, prices[1:]))
    assert len({spot_price(flat, s) for s in grid}) == 1


# -- closed-form cash versus integration ------------------------------------------

def test_buy_cash_matches_integrated_price():
    # oracle: integrate P(s) ds over [1000, 1100]
    integral, _ = quad(lambda s: spot_price_raw(0.5, 1000.0, 10000.0, s),
                       1000.0, 1100.0, epsabs=1e-10, epsrel=1e-12)
    assert integral == pytest.approx(2100.0, rel=1e-10)
    quote = quote_buy_tokens(fx("0.5"), fx(1000), fx(10000), fx(100))
    assert quote.cash_delta == fx(2100)
    # the spot price after the trade, on the curve anchored where it starts
    assert spot_price(state("0.5", 1000, 10000), fx(1000) + quote.tokens_delta) == fx(22)


def test_sell_after_buy_round_trip_is_symmetric():
    quote = quote_buy_tokens(fx("0.5"), fx(1100), fx(12100), fx(-100))
    assert quote.cash_delta == fx(-2100)
    assert quote.tokens_delta == fx(-100)


def test_spend_cash_inverts_buy():
    quote = quote_spend_cash(fx("0.5"), fx(1000), fx(10000), fx(2100))
    assert quote.tokens_delta == fx(100)


def test_zero_amounts_rejected():
    for fn in (quote_buy_tokens, quote_spend_cash):
        with pytest.raises(LedgerError) as err:
            fn(fx("0.5"), fx(1000), fx(10000), ZERO)
        assert err.value.code is ErrorCode.INVALID_AMOUNT


def test_oversell_and_overdraw_rejected():
    with pytest.raises(LedgerError) as err:
        quote_buy_tokens(fx("0.5"), fx(1000), fx(10000), fx(-1001))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    with pytest.raises(LedgerError) as err:
        quote_spend_cash(fx("0.5"), fx(1000), fx(10000), fx(-10001))
    assert err.value.code is ErrorCode.RESERVE_EXHAUSTED
    with pytest.raises(LedgerError) as err:
        quote_spend_cash(fx("0.5"), fx(1000), ZERO, fx(1))
    assert err.value.code is ErrorCode.RESERVE_EXHAUSTED


def test_full_drain_is_exact():
    quote = quote_buy_tokens(fx("0.5"), fx(1000), fx(10000), fx(-1000))
    assert quote.cash_delta == fx(-10000)
    quote = quote_spend_cash(fx("0.5"), fx(1000), fx(10000), fx(-10000))
    assert quote.tokens_delta == fx(-1000)


def test_dust_trades_rejected_rather_than_zero_legged():
    # proceeds would round to zero cash
    with pytest.raises(LedgerError) as err:
        quote_buy_tokens(fx("1"), fx(10000000), fx(100), Fixed(-1))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    # tokens received would round to zero
    with pytest.raises(LedgerError) as err:
        quote_spend_cash(fx("1"), fx(100), fx(10000000), Fixed(1))
    assert err.value.code is ErrorCode.INVALID_AMOUNT


def test_conservative_rounding_direction():
    # pick a state where the raw cash is genuinely off-grid
    raw = cash_for_tokens_raw(0.3, 997.0, 10007.0, 311.0)
    buy = quote_buy_tokens(fx("0.3"), fx(997), fx(10007), fx(311))
    assert buy.cash_delta.to_float() >= raw - 1e-9
    sell_raw = cash_for_tokens_raw(0.3, 997.0, 10007.0, -311.0)
    sell = quote_buy_tokens(fx("0.3"), fx(997), fx(10007), fx(-311))
    assert abs(sell.cash_delta.to_float()) <= abs(sell_raw) + 1e-9


# -- property suite over sane market states -----------------------------------------

curve_states = st.tuples(
    st.integers(min_value=100_000, max_value=1_000_000),          # F micro in [0.1, 1]
    st.integers(min_value=100, max_value=100_000),                # s0 units
    st.integers(min_value=1, max_value=1_000),                    # price units at s0
)


@settings(max_examples=200, deadline=None)
@given(curve_states, st.integers(min_value=-400_000, max_value=400_000))
def test_quote_legs_always_share_a_sign(params, e_ppm):
    f_micro, s0_units, price_units = params
    assume(e_ppm != 0)
    fraction = Fixed(f_micro)
    s0 = fx(s0_units)
    c0 = fx(price_units * s0_units).mul(fraction)
    e = Fixed.from_float(s0_units * e_ppm / 1e6, "nearest")
    assume(not e.is_zero)
    quote = quote_buy_tokens(fraction, s0, c0, e)
    assert quote.tokens_delta.is_positive == quote.cash_delta.is_positive
    assert not quote.cash_delta.is_zero
    spend = quote_spend_cash(fraction, s0, c0, quote.cash_delta)
    assert spend.tokens_delta.is_positive == spend.cash_delta.is_positive
    assert not spend.tokens_delta.is_zero


@settings(max_examples=200, deadline=None)
@given(curve_states, st.integers(min_value=1, max_value=500_000))
def test_inverse_consistency_within_two_ulp(params, e_ppm):
    # e spans 1e-3 .. 0.5 of the supply; prices at least 1 euro/token so a
    # single cash ulp cannot move the token leg beyond the bound
    f_micro, s0_units, price_units = params
    fraction = Fixed(f_micro)
    s0 = fx(s0_units)
    c0 = fx(price_units * s0_units).mul(fraction)
    e_units = max(1e-3, 0.5 * e_ppm / 500_000) * s0_units
    e = Fixed.from_float(e_units, "nearest")
    quote = quote_buy_tokens(fraction, s0, c0, e)
    back = quote_spend_cash(fraction, s0, c0, quote.cash_delta)
    assert abs(back.tokens_delta - e).micro <= 2


@settings(max_examples=200, deadline=None)
@given(curve_states, st.integers(min_value=1_000, max_value=240_000),
       st.integers(min_value=1_000, max_value=240_000))
def test_path_independence_within_three_ulp(params, ppm1, ppm2):
    f_micro, s0_units, price_units = params
    fraction = Fixed(f_micro)
    s0 = fx(s0_units)
    c0 = fx(price_units * s0_units).mul(fraction)
    e1 = Fixed.from_float(s0_units * ppm1 / 1e6, "nearest")
    e2 = Fixed.from_float(s0_units * ppm2 / 1e6, "nearest")
    if e1.is_zero or e2.is_zero:
        return
    # the first trade's one-ulp cash rounding is amplified into the second
    # quote by k = (1 + e2/s')^(1/F) - 1; the three-ulp bound is a theorem
    # for k <= 1, so keep the second trade inside that regime
    s_mid = (s0 + e1).to_float()
    k = (1.0 + e2.to_float() / s_mid) ** (1.0 / fraction.to_float()) - 1.0
    assume(k <= 1.0)
    q1 = quote_buy_tokens(fraction, s0, c0, e1)
    q2 = quote_buy_tokens(fraction, s0 + e1, c0 + q1.cash_delta, e2)
    combined = quote_buy_tokens(fraction, s0, c0, e1 + e2)
    split_total = q1.cash_delta + q2.cash_delta
    assert abs(split_total - combined.cash_delta).micro <= 3


# -- ledger-level trades ----------------------------------------------------------

def make_exchange_driver(fraction="0.5", supply=1000, reserve=10000,
                         cash="1000000") -> LedgerDriver:
    driver = LedgerDriver(standard_market(cash=cash))
    driver.mint_permit("A", "E", supply)
    driver.init_exchange(fraction, supply, reserve)
    return driver


def test_trade_token_buy_moves_all_four_legs():
    driver = make_exchange_driver()
    event = driver.trade_token("E", 100)
    ledger = driver.ledger
    assert ledger.org("E").permit == fx(1100)
    assert ledger.market_permit == fx(1100)
    assert ledger.org("E").cash == fx(1000000) - fx(2100)
    assert ledger.exchange.reserve == fx(12100)
    assert event.cash_delta == fx(2100)


def test_trade_token_sell_pays_the_seller():
    driver = make_exchange_driver()
    driver.trade_token("E", 100)
    cash_before = driver.ledger.org("E").cash
    driver.trade_token("E", -100)
    ledger = driver.ledger
    assert ledger.org("E").permit == fx(1000)
    assert ledger.org("E").cash == cash_before + fx(2100)
    assert ledger.exchange.reserve == fx(10000)


def test_trade_token_gates():
    driver = make_exchange_driver(cash="1")
    with pytest.raises(LedgerError) as err:
        driver.trade_token("E", 100)
    assert err.value.code is ErrorCode.INSUFFICIENT_CASH
    with pytest.raises(LedgerError) as err:
        driver.trade_token("F", -1)
    assert err.value.code is ErrorCode.INSUFFICIENT_BALANCE


def test_trade_with_no_permits_outstanding_is_refused():
    # the curve has no supply to price against until permits circulate
    driver = LedgerDriver(standard_market())
    driver.init_exchange("0.5", 100, 1000)
    before = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        driver.trade_token("E", 1)
    assert err.value.code is ErrorCode.INVALID_SUPPLY
    assert driver.ledger.state_json() == before


def test_buy_sell_round_trip_within_two_ulp():
    driver = make_exchange_driver(fraction="0.37", supply=977, reserve=10061)
    cash_before = driver.ledger.org("E").cash
    driver.trade_token("E", 313)
    driver.trade_token("E", -313)
    drift = abs(driver.ledger.org("E").cash - cash_before)
    assert drift.micro <= 2
    assert driver.ledger.exchange.reserve >= fx(10061)


def test_convert_cash_round_trip_within_two_ulp():
    driver = make_exchange_driver(fraction="0.37", supply=977, reserve=10061)
    permit_before = driver.ledger.org("E").permit
    driver.convert_cash("E", 1777)
    driver.convert_cash("E", -1777)
    drift = abs(driver.ledger.org("E").permit - permit_before)
    assert drift.micro <= 2


def test_convert_cash_gates():
    driver = make_exchange_driver(cash="10")
    with pytest.raises(LedgerError) as err:
        driver.convert_cash("E", 1000)
    assert err.value.code is ErrorCode.INSUFFICIENT_CASH
    with pytest.raises(LedgerError) as err:
        driver.convert_cash("F", -500)  # F holds no permits to sell
    assert err.value.code is ErrorCode.INSUFFICIENT_BALANCE
    with pytest.raises(LedgerError) as err:
        driver.convert_cash("E", -20000)
    assert err.value.code is ErrorCode.RESERVE_EXHAUSTED


@pytest.mark.parametrize("kind, sender, amount, code, message", [
    ("trade_token", "E", 100, ErrorCode.INSUFFICIENT_CASH,
     "buy needs 2100.000000, 'E' holds 10.000000"),
    ("convert_cash", "E", 1000, ErrorCode.INSUFFICIENT_CASH,
     "buy needs 1000.000000, 'E' holds 10.000000"),
    ("trade_token", "F", -1, ErrorCode.INSUFFICIENT_BALANCE,
     "'F' holds 0.000000 permits, cannot sell 1.000000"),
    ("convert_cash", "F", -500, ErrorCode.INSUFFICIENT_BALANCE,
     "'F' holds 0.000000 permits, cannot sell 25.320566"),
])
def test_both_trade_kinds_refuse_a_leg_the_sender_cannot_cover(kind, sender, amount, code,
                                                               message):
    # one rule for both kinds: the priced cash leg against the sender's
    # cash, the priced token leg against its permits
    driver = make_exchange_driver(cash="10")
    before = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        getattr(driver, kind)(sender, amount)
    assert (err.value.code, err.value.message) == (code, message)
    assert driver.ledger.state_json() == before


@pytest.mark.parametrize("quote", [quote_buy_tokens, quote_spend_cash])
@pytest.mark.parametrize("supply, reserve, code", [
    (0, 10000, ErrorCode.INVALID_SUPPLY),
    (-5, 10000, ErrorCode.INVALID_SUPPLY),
    (1000, 0, ErrorCode.RESERVE_EXHAUSTED),
    (1000, -5, ErrorCode.RESERVE_EXHAUSTED),
])
def test_both_quotes_need_a_live_curve(quote, supply, reserve, code):
    for amount in (10, -10):
        with pytest.raises(LedgerError) as err:
            quote(fx("0.5"), fx(supply), fx(reserve), fx(amount))
        assert err.value.code is code


def test_cash_into_an_emptied_reserve_is_rejected_atomically():
    driver = make_exchange_driver()
    driver.set_price("A", "0.000001")   # F * P rounds to zero, so C = F * s * P is 0
    assert driver.ledger.exchange.reserve == ZERO
    before = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        driver.convert_cash("E", 1)
    assert err.value.code is ErrorCode.RESERVE_EXHAUSTED
    assert driver.ledger.state_json() == before


def test_cash_out_sells_tokens_at_the_margin():
    # at a locally flat curve (full reserve fraction) cashing out 240 at a
    # spot price of 24 surrenders exactly 10 tokens
    driver = LedgerDriver(standard_market())
    driver.mint_permit("A", "E", 10000)
    driver.init_exchange("1", 10000, 240000)
    assert driver.ledger.market_price == fx(24)
    event = driver.convert_cash("E", -240)
    assert event.token_delta == fx(-10)
    assert driver.ledger.org("E").cash == fx(100240)


def test_cash_out_on_a_large_convex_market():
    # on a convex curve (F=0.5) with a large supply the price is locally
    # flat, so cashing out 240 at spot 24 surrenders 10 tokens to within a
    # sub-token rounding margin
    quote = quote_spend_cash(fx("0.5"), fx(1_000_000), fx(12_000_000), fx(-240))
    assert abs(quote.tokens_delta + fx(10)) <= fx("0.001")


def test_reserve_never_negative_under_random_trading():
    rng = random.Random(99)
    driver = make_exchange_driver(fraction="0.5", supply=1000, reserve=10000,
                                  cash="100000000")
    for _ in range(2000):
        amount = rng.choice((1, 3, 7, -2, -5, 11, -11))
        try:
            if rng.random() < 0.5:
                driver.trade_token("E", amount)
            else:
                driver.convert_cash("E", amount * 20)
        except LedgerError:
            continue
        assert driver.ledger.exchange.reserve >= ZERO
