"""Accounting engine: golden rows, lot mechanics, balance invariants."""

import random

import pytest

from carbonmarket import Account, ErrorCode, Journal, LedgerError, Side
from carbonmarket.chainlog import replay
from carbonmarket.fixed import ZERO

from conftest import LedgerDriver, fx, standard_market


def entry_amounts(entry):
    return [(line.account, line.side, line.amount) for line in entry.lines]


def find_rows(journal, account, side):
    return [line.amount for entry in journal.entries for line in entry.lines
            if line.account is account and line.side is side]


def holdings(journal, org):
    books = journal.books.get(org)
    return books.holdings() if books else ZERO


def priced_driver(price=20, supply=100000):
    """Large flat-curve market so trades execute at the marked price."""
    driver = LedgerDriver(standard_market(cash="10000000"))
    driver.mint_permit("A", "F", supply)
    driver.init_exchange("1", supply, supply * price)
    return driver


# -- issuance and transfer -------------------------------------------------------

def test_mint_permit_entry_and_lot(driver):
    driver.init_exchange("1", 1000, 20000)       # the genesis price is 20
    journal = Journal()
    entries = journal.on_event(driver.mint_permit("A", "E", 100))
    assert entry_amounts(entries[0]) == [
        (Account.PERMIT_ALLOWANCES, Side.DR, fx(2000)),
        (Account.DEFERRED_INCOME, Side.CR, fx(2000)),
    ]
    assert holdings(journal, "E") == fx(100)


def test_grant_permit_uses_credit_account(golden_run):
    credits = find_rows(golden_run.journal, Account.PERMIT_CREDITS, Side.DR)
    assert credits == [fx(800)]


def test_transfer_releases_deferred_income_at_issue_price(golden_run):
    rights = find_rows(golden_run.journal, Account.EMISSION_RIGHTS, Side.CR)
    assert rights == [fx(200)]


def test_transfer_of_entire_holding_empties_lots():
    driver = priced_driver()
    journal = Journal()
    event = driver.mint_permit("A", "E", 30)
    journal.on_event(event)
    event = driver.transfer_permit("E", "F", 30)
    journal.on_event(event)
    assert holdings(journal, "E") == ZERO
    assert journal.books["E"].lots == []


def test_receiver_lot_carries_no_deferred_income():
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "E", 30))
    journal.on_event(driver.set_price("A", 24))
    journal.on_event(driver.transfer_permit("E", "F", 12))
    lot = journal.books["F"].lots[0]
    assert lot.qty == fx(12)
    assert lot.issue is None  # deferred income does not travel with the lot


def test_two_small_transfers_equal_one_big_one():
    # oracle: FIFO lot simulation is additive in quantity
    def released_total(amounts):
        driver = priced_driver()
        journal = Journal()
        journal.on_event(driver.mint_permit("A", "E", 10))
        journal.on_event(driver.grant_permit("V", "E", 10))
        for amount in amounts:
            journal.on_event(driver.transfer_permit("E", "F", amount))
        return sum(find_rows(journal, Account.EMISSION_RIGHTS, Side.CR), ZERO)

    assert released_total([5, 5]) == released_total([10])
    assert released_total([5, 5]) == fx(200)  # 10 tokens at issue price 20


# -- emissions ------------------------------------------------------------------

def test_mint_emission_two_entries(golden_run):
    # first recognition: release 55 x 20 deferred, accrue 55 x 24 liability
    entries = [e for e in golden_run.journal.entries if e.event_ref == 5]
    assert entry_amounts(entries[0]) == [
        (Account.DEFERRED_INCOME, Side.DR, fx(1100)),
        (Account.INCOME, Side.CR, fx(1100)),
    ]
    assert entry_amounts(entries[1]) == [
        (Account.EXPENSES_EMISSIONS, Side.DR, fx(1320)),
        (Account.PERMIT_SURRENDERABLE, Side.CR, fx(1320)),
    ]


def test_mint_emission_policy_values(golden_run):
    # second recognition at q=70, issue price 20, market price 22
    entries = [e for e in golden_run.journal.entries if e.event_ref == 8]
    assert entry_amounts(entries[0])[0][2] == fx(1400)   # 70 x 20
    assert entry_amounts(entries[1])[0][2] == fx(1540)   # 70 x 22


def test_emission_without_lots_accrues_only():
    driver = priced_driver()
    journal = Journal()
    entries = journal.on_event(driver.mint_emission("E", "V", 10))
    assert len(entries) == 1
    assert entry_amounts(entries[0]) == [
        (Account.EXPENSES_EMISSIONS, Side.DR, fx(200)),
        (Account.PERMIT_SURRENDERABLE, Side.CR, fx(200)),
    ]


# -- revaluation -------------------------------------------------------------------

def test_revaluation_loss_row(golden_run):
    losses = find_rows(golden_run.journal, Account.LOSS_ON_REVALUATION, Side.DR)
    assert fx(240) in losses          # E: 120 tokens x (24 - 22)
    assert fx(20) in losses           # F: 10 tokens x (24 - 22)


def test_revaluation_gain_per_holder(golden_run):
    gains = find_rows(golden_run.journal, Account.GAIN_ON_REVALUATION, Side.CR)
    assert fx(520) in gains           # E: 130 tokens x (24 - 20)
    assert fx(40) in gains            # F: 10 tokens x (24 - 20)
    assert fx(110) in gains           # E: liability re-mark 55 x (24 - 22)


def test_no_entry_when_price_unchanged():
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "E", 10))
    entries = journal.on_event(driver.set_price("A", 20))
    assert entries == []


@pytest.mark.parametrize("new_price", [25, 16])
def test_purchased_lot_revalued_by_holdings_times_price_move(new_price):
    # a convex curve (fraction 0.5) fills the buy above the marked price of
    # 20, yet revaluation moves only by holdings x (new - old)
    driver = LedgerDriver(standard_market(cash="10000000"))
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "F", 1000))
    driver.init_exchange("0.5", 1000, 10000)
    old = driver.ledger.market_price
    assert old == fx(20)
    buy = driver.trade_token("E", 100)
    journal.on_event(buy)
    assert buy.cash_delta != fx(100).mul(old)
    entries = journal.on_event(driver.set_price("A", new_price))
    row = next(entry for entry in entries if entry.org == "E")
    delta = fx(100).mul(fx(new_price) - old)
    if delta > ZERO:
        assert entry_amounts(row) == [(Account.EMISSION_PERMIT, Side.DR, delta),
                                      (Account.GAIN_ON_REVALUATION, Side.CR, delta)]
    else:
        assert entry_amounts(row) == [(Account.LOSS_ON_REVALUATION, Side.DR, -delta),
                                      (Account.EMISSION_PERMIT, Side.CR, -delta)]


# -- trades -----------------------------------------------------------------------

def test_buy_entry(golden_run):
    entries = [e for e in golden_run.journal.entries if e.event_ref == 9]
    assert entry_amounts(entries[0]) == [
        (Account.EMISSION_PERMIT, Side.DR, fx(110)),
        (Account.CASH, Side.CR, fx(110)),
    ]


def test_sell_entry_with_deferred_release(golden_run):
    entries = [e for e in golden_run.journal.entries if e.event_ref == 6]
    assert entry_amounts(entries[0]) == [
        (Account.CASH, Side.DR, fx(240)),
        (Account.EMISSION_PERMIT, Side.CR, fx(240)),
        (Account.DEFERRED_INCOME, Side.DR, fx(200)),
        (Account.INCOME, Side.CR, fx(200)),
    ]


def test_purchased_lots_carry_no_deferred_income():
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.trade_token("E", 50))
    lot = journal.books["E"].lots[0]
    assert lot.issue is None
    # selling them back releases no deferred income
    entries = journal.on_event(driver.trade_token("E", -50))
    accounts = {line.account for line in entries[0].lines}
    assert Account.DEFERRED_INCOME not in accounts


# -- burn ----------------------------------------------------------------------------

def test_burn_extinguishes_liability(golden_run):
    entries = [e for e in golden_run.journal.entries if e.event_ref == 10]
    assert entry_amounts(entries[0]) == [
        (Account.PERMIT_SURRENDERABLE, Side.DR, fx(2750)),
        (Account.EMISSION_PERMIT, Side.CR, fx(2750)),
    ]


def test_pure_voluntary_surrender_is_an_expense():
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "E", 10))
    entries = journal.on_event(driver.burn_token("E", 10))
    assert entry_amounts(entries[0]) == [
        (Account.EXPENSES_EMISSIONS, Side.DR, fx(200)),
        (Account.EMISSION_PERMIT, Side.CR, fx(200)),
    ]


def test_partial_burn_keeps_liability_marked():
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "E", 100))
    journal.on_event(driver.mint_emission("E", "V", 60))
    journal.on_event(driver.burn_token("E", 25))
    books = journal.books["E"]
    assert books.liability_qty == fx(35)
    assert books.liability_balance == fx(700)  # 35 tonnes at 20


# -- numeric edges -------------------------------------------------------------------

def test_booking_overflow_is_an_invalid_amount():
    # the ledger holds 1e12 tokens, but 1e12 x 20 is beyond the 64-bit range
    driver = priced_driver(price=20)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "E", 10))
    before = list(journal.entries)
    with pytest.raises(LedgerError) as err:
        journal.on_event(driver.mint_permit("A", "E", 1000000000000))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert journal.entries == before


# -- global invariants ------------------------------------------------------------------

def test_every_entry_balances(golden_run):
    for entry in golden_run.journal.entries:
        assert entry.total(Side.DR) == entry.total(Side.CR)
        assert all(line.amount > ZERO for line in entry.lines)


def test_trial_balance_closure(golden_run):
    nets = golden_run.journal.trial_balance()
    assert sum(nets.values(), ZERO) == ZERO
    assert nets[Account.PERMIT_SURRENDERABLE] == ZERO


def test_empty_journal_trial_balance_all_zero():
    nets = Journal().trial_balance()
    assert set(nets) == set(Account)
    assert all(v == ZERO for v in nets.values())


def test_lot_conservation_under_random_activity():
    rng = random.Random(5150)
    driver = LedgerDriver(standard_market(cash="10000000"))
    driver.init_exchange("1", 100000, 2000000)
    journal = Journal()
    journal.on_event(driver.mint_permit("A", "F", 100000))
    ops = ("mint", "grant", "transfer", "trade", "convert", "burn", "emit", "price")
    for _ in range(300):
        op = rng.choice(ops)
        try:
            if op == "mint":
                journal.on_event(driver.mint_permit("A", rng.choice("EF"), rng.randint(1, 40)))
            elif op == "grant":
                journal.on_event(driver.grant_permit("V", "E", rng.randint(1, 30)))
            elif op == "transfer":
                a, b = rng.sample(["E", "F", "V"], 2)
                journal.on_event(driver.transfer_permit(a, b, rng.randint(1, 15)))
            elif op == "trade":
                journal.on_event(driver.trade_token("E", rng.choice((3, 9, -4, -8))))
            elif op == "convert":
                journal.on_event(driver.convert_cash("F", rng.choice((60, 200, -40))))
            elif op == "burn":
                journal.on_event(driver.burn_token(rng.choice("EF"), rng.randint(1, 20)))
            elif op == "emit":
                journal.on_event(driver.mint_emission(rng.choice("EF"), "V", rng.randint(1, 10)))
            elif op == "price":
                journal.on_event(driver.set_price("A", rng.randint(15, 30)))
        except Exception as exc:
            from carbonmarket import LedgerError
            assert isinstance(exc, LedgerError), exc
            continue
        # lot quantities mirror the ledger's permit balances after every event
        for org_id, record in driver.ledger.registry.items():
            assert holdings(journal, org_id) == record.permit, org_id
        for entry in journal.entries:
            assert entry.total(Side.DR) == entry.total(Side.CR)


def test_journal_from_replay_matches_live(golden_run):
    regenerated = Journal()
    replay(golden_run.chainlog, on_event=regenerated.on_event)
    assert regenerated.export_csv() == golden_run.journal.export_csv()
    assert regenerated.trial_balance() == golden_run.journal.trial_balance()


def test_export_ordering_and_columns(golden_run):
    text = golden_run.journal.export_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "event,account,class,side,amount"
    rows = [line.split(",") for line in lines[1:]]
    keys = [(int(r[0]), r[3] == "Cr", r[1]) for r in rows]
    assert keys == sorted(keys)
    assert {r[2] for r in rows} <= {"Asset", "Liability", "Equity"}
