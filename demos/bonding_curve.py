#!/usr/bin/env python3
"""Explore the exchange's constant-reserve-fraction pricing curve.

Shows how the spot price depends on outstanding supply for a few reserve
fractions, prices some trades, and demonstrates the authority's two levers
for steering the market price.
"""

from carbonmarket import Fixed, quote_buy_tokens, quote_spend_cash
from carbonmarket.exchange import ExchangeState, spot_price
from carbonmarket.reports import price_curve_rows

S0 = Fixed.parse(1000)
C0 = Fixed.parse(10000)


def show_curves():
    print("spot price as a function of supply (s0=1000, C0=10000)")
    fractions = ["0.25", "0.5", "1"]
    grid = [Fixed.parse(v) for v in (400, 700, 1000, 1300, 1600, 2000)]
    print("  supply   " + "".join(f"F={f:>6s}" for f in fractions))
    for s in grid:
        row = f"  {str(s):>10s}"
        for f in fractions:
            state = ExchangeState(Fixed.parse(f), C0, S0, C0)
            row += f" {spot_price(state, s).to_float():9.3f}"
        print(row)
    print("  (full reserve fraction means a flat price; smaller fractions")
    print("   make the price climb with supply)\n")


def show_quotes():
    f = Fixed.parse("0.5")
    print("quotes against the curve at F=0.5, supply 1000, reserve 10000")
    buy = quote_buy_tokens(f, S0, C0, Fixed.parse(100))
    after = spot_price(ExchangeState(f, C0, S0, C0), S0 + buy.tokens_delta)
    print(f"  buying 100 tokens costs {buy.cash_delta}  (spot afterwards {after})")
    sell = quote_buy_tokens(f, S0 + buy.tokens_delta, C0 + buy.cash_delta,
                            Fixed.parse(-100))
    print(f"  selling them straight back returns {-sell.cash_delta}")
    spend = quote_spend_cash(f, S0, C0, Fixed.parse(2100))
    print(f"  spending 2100 instead buys {spend.tokens_delta} tokens\n")


def show_levers():
    print("market steering (supply 1000)")
    state = ExchangeState(Fixed.parse("0.5"), C0, S0, C0)
    print(f"  start:                         spot = {spot_price(state, S0)}")
    tightened = ExchangeState(Fixed.parse("0.25"), C0, S0, C0)
    print(f"  halve the reserve fraction:    spot = {spot_price(tightened, S0)}")
    funded = ExchangeState(Fixed.parse("0.5"), C0 + C0, S0, C0 + C0)
    print(f"  double the reserve instead:    spot = {spot_price(funded, S0)}\n")


def show_table():
    print("price-curve report rows (F=0.5), ready for plotting")
    for supply, price in price_curve_rows(Fixed.parse("0.5"), S0, C0,
                                          Fixed.parse(500), Fixed.parse(2000), 7):
        print(f"  {supply},{price}")


if __name__ == "__main__":
    show_curves()
    show_quotes()
    show_levers()
    show_table()
