"""Accounting engine: golden rows, lot mechanics, balance invariants."""

import csv
import io
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from carbonmarket import (Account, AccountClass, AppliedEvent, ErrorCode, Journal,
                          LedgerError, Side, TokenLedger, Transaction, TxKind)
from carbonmarket.chainlog import replay
from carbonmarket.fixed import ZERO, Fixed

from conftest import LedgerDriver, endowed_genesis, fx, standard_market
from test_state_cache import TOKEN, transactions


def entry_amounts(entry):
    return [(line.account, line.side, line.amount) for line in entry.lines]


def is_balanced(entry) -> bool:
    """Whether the entry's debit lines sum to its credit lines."""
    return (sum(line.amount.micro for line in entry.lines if line.side is Side.DR)
            == sum(line.amount.micro for line in entry.lines if line.side is Side.CR))


def find_rows(journal, account, side):
    return [line.amount for entry in journal.entries for line in entry.lines
            if line.account is account and line.side is side]


def holdings(journal, org):
    books = journal.books.get(org)
    return books.holdings if books else ZERO


def priced_driver(price=20, supply=100000):
    """Large flat-curve market so trades execute at the marked price; F
    holds the supply, which a journal opened on the driver's ledger takes
    as F's opening lot."""
    driver = LedgerDriver(standard_market(cash="10000000"))
    driver.mint_permit("A", "F", supply)
    driver.init_exchange("1", supply, supply * price)
    return driver


# -- issuance and transfer -------------------------------------------------------

def test_mint_permit_entry_and_lot(driver):
    driver.init_exchange("1", 1000, 20000)       # the genesis price is 20
    journal = Journal(driver.ledger)
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
    journal = Journal(driver.ledger)
    event = driver.mint_permit("A", "E", 30)
    journal.on_event(event)
    event = driver.transfer_permit("E", "F", 30)
    journal.on_event(event)
    assert holdings(journal, "E") == ZERO
    assert journal.books["E"].lots == []


def test_receiver_lot_carries_no_deferred_income():
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 30))
    journal.on_event(driver.set_price("A", 24))
    journal.on_event(driver.transfer_permit("E", "F", 12))
    opening, lot = journal.books["F"].lots     # F's genesis supply, then E's 12
    assert (opening.qty, opening.issue) == (fx(100000), None)
    assert lot.qty == fx(12)
    assert lot.issue is None  # deferred income does not travel with the lot
    # a transfer that consumes two of E's lots (issued at 20 and at 24)
    # still gives F one lot of the transferred quantity
    journal.on_event(driver.mint_permit("A", "E", 10))
    journal.on_event(driver.transfer_permit("E", "F", 25))
    assert [(lot.qty, lot.issue) for lot in journal.books["F"].lots] == [
        (fx(100000), None), (fx(12), None), (fx(25), None)]


def test_a_self_transfer_books_nothing():
    # the ledger applies a transfer to oneself as an identity, and so does
    # the journal: the lot keeps its issue price for a later emission
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 10))
    assert journal.on_event(driver.transfer_permit("E", "E", 10)) == []
    assert [(lot.qty, lot.issue) for lot in journal.books["E"].lots] == [(fx(10), fx(20))]
    assert journal.trial_balance()[Account.DEFERRED_INCOME] == fx(-200)
    released, _ = journal.on_event(driver.mint_emission("E", "V", 5))
    assert entry_amounts(released) == [(Account.DEFERRED_INCOME, Side.DR, fx(100)),
                                       (Account.INCOME, Side.CR, fx(100))]


def test_two_small_transfers_equal_one_big_one():
    # oracle: FIFO lot simulation is additive in quantity
    def released_total(amounts):
        driver = priced_driver()
        journal = Journal(driver.ledger)
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


def test_emission_releases_at_the_first_lot_that_carries_an_issue_price():
    # the head lot is bought and carries no issue price; the emission
    # releases at the issue price of the minted lot behind it
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.trade_token("E", 10))
    journal.on_event(driver.set_price("A", 25))
    journal.on_event(driver.mint_permit("A", "E", 10))
    assert [lot.issue for lot in journal.books["E"].lots] == [None, fx(25)]
    released, _ = journal.on_event(driver.mint_emission("E", "V", 5))
    assert entry_amounts(released) == [(Account.DEFERRED_INCOME, Side.DR, fx(125)),
                                       (Account.INCOME, Side.CR, fx(125))]


def test_emission_without_lots_accrues_only():
    driver = priced_driver()
    journal = Journal(driver.ledger)
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
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 10))
    entries = journal.on_event(driver.set_price("A", 20))
    assert entries == []


@pytest.mark.parametrize("new_price", [25, 16])
def test_purchased_lot_revalued_by_holdings_times_price_move(new_price):
    # a convex curve (fraction 0.5) fills the buy above the marked price of
    # 20, yet revaluation moves only by holdings x (new - old)
    driver = LedgerDriver(standard_market(cash="10000000"))
    journal = Journal(driver.ledger)
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


# One org's setPrice entry for each direction of its asset and liability moves.
# The price goes 20 -> 25 (a rise) or 20 -> 16 (a fall); E holds 10 permits,
# or none for no asset move, and owes 3 tonnes marked at 3 below (a rise) or
# above (a fall) the new price, or none for no liability move.
PRICE_MOVES = {"rise": 25, "fall": 16}
ASSET_LINES = {
    "rise": [(Account.EMISSION_PERMIT, Side.DR), (Account.GAIN_ON_REVALUATION, Side.CR)],
    "fall": [(Account.LOSS_ON_REVALUATION, Side.DR), (Account.EMISSION_PERMIT, Side.CR)],
    "zero": []}
LIABILITY_LINES = {
    "rise": [(Account.LOSS_ON_REVALUATION, Side.DR), (Account.PERMIT_SURRENDERABLE, Side.CR)],
    "fall": [(Account.PERMIT_SURRENDERABLE, Side.DR), (Account.GAIN_ON_REVALUATION, Side.CR)],
    "zero": []}


@pytest.mark.parametrize("liability", ["rise", "fall", "zero"])
@pytest.mark.parametrize("asset", ["rise", "fall", "zero"])
def test_price_change_lines_by_direction(asset, liability):
    new = PRICE_MOVES["fall" if asset == "fall" else "rise"]
    marked = new - 3 if liability == "rise" else new + 3
    held = 0 if asset == "zero" else 10
    owed = 0 if liability == "zero" else 3
    genesis = endowed_genesis(standard_market(), marked * TOKEN, E=(held * TOKEN, owed * TOKEN))
    journal = Journal(genesis)
    tx = Transaction(seq=1, time="t1", kind=TxKind.SET_PRICE, sender="A",
                     payload={"price": new * TOKEN})
    entries = journal.on_event(AppliedEvent(tx, fx(20), fx(new)))
    asset_amount = fx(held * abs(new - 20))
    liability_amount = fx(owed * 3)
    expected = ([(account, side, asset_amount) for account, side in ASSET_LINES[asset]]
                + [(account, side, liability_amount)
                   for account, side in LIABILITY_LINES[liability]])
    assert [(entry.event_ref, entry.org, entry_amounts(entry)) for entry in entries] == (
        [(1, "E", expected)] if expected else [])
    assert journal.books["E"].liability_balance == fx(owed * new)


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
    journal = Journal(driver.ledger)
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
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 10))
    entries = journal.on_event(driver.burn_token("E", 10))
    assert entry_amounts(entries[0]) == [
        (Account.EXPENSES_EMISSIONS, Side.DR, fx(200)),
        (Account.EMISSION_PERMIT, Side.CR, fx(200)),
    ]


def test_partial_burn_keeps_liability_marked():
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 100))
    journal.on_event(driver.mint_emission("E", "V", 60))
    journal.on_event(driver.burn_token("E", 25))
    books = journal.books["E"]
    assert books.liability_qty == fx(35)
    assert books.liability_balance == fx(700)  # 35 tonnes at 20


def test_reprice_clears_a_balance_left_without_tonnes():
    # three accruals of 0.000001 t at 1.5 round to 0.000002 each; retiring
    # the 0.000003 t surrenders 0.000004 (4.5 rounds to even), so the books
    # owe no tonnes but keep a balance of 0.000002, which a re-price clears
    driver = LedgerDriver(standard_market())
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 1))
    journal.on_event(driver.set_price("A", "1.5"))
    for _ in range(3):
        journal.on_event(driver.mint_emission("E", "V", "0.000001"))
    journal.on_event(driver.burn_token("E", "0.000003"))
    journal.on_event(driver.burn_token("E", "0.999997"))
    books = journal.books["E"]
    assert (books.holdings, books.liability_qty) == (ZERO, ZERO)
    assert books.liability_balance == fx("0.000002")
    entries = journal.on_event(driver.set_price("A", 2))
    assert [entry_amounts(entry) for entry in entries] == [[
        (Account.PERMIT_SURRENDERABLE, Side.DR, fx("0.000002")),
        (Account.GAIN_ON_REVALUATION, Side.CR, fx("0.000002"))]]
    assert books.liability_balance == ZERO


# -- numeric edges -------------------------------------------------------------------

def test_booking_overflow_is_an_invalid_amount():
    # the ledger holds 1e12 tokens, but 1e12 x 20 is beyond the 64-bit range
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 10))
    before = list(journal.entries)
    with pytest.raises(LedgerError) as err:
        journal.on_event(driver.mint_permit("A", "E", 1000000000000))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert journal.entries == before

    # an event whose first entry books and whose second overflows records
    # neither: the release is 1e7 x 1, the accrual 1e7 x 1e6
    driver = priced_driver(price=20)
    journal = Journal(driver.ledger)
    journal.on_event(driver.set_price("A", 1))
    journal.on_event(driver.mint_permit("A", "E", 10))
    journal.on_event(driver.set_price("A", 1000000))
    before = list(journal.entries)
    with pytest.raises(LedgerError) as err:
        journal.on_event(driver.mint_emission("E", "V", 10000000))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert journal.entries == before


def test_running_net_overflow_is_refused_and_undone():
    # every line fits the 64-bit amount range, but the second re-price would
    # carry the nets of Emission permit and Gain on revaluation past it:
    # E's entry books, then F's overflows, and the event is refused whole
    driver = LedgerDriver(standard_market())
    journal = Journal(driver.ledger)
    journal.on_event(driver.mint_permit("A", "E", 1))
    journal.on_event(driver.mint_permit("A", "F", 1))
    journal.on_event(driver.set_price("A", 4000000000000))
    before, nets = list(journal.entries), journal.trial_balance()
    assert nets[Account.GAIN_ON_REVALUATION] == fx(-8000000000000)
    with pytest.raises(LedgerError) as err:
        journal.on_event(driver.set_price("A", 5000000000000))
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert "running net of 'Emission permit'" in err.value.message
    assert journal.entries == before
    assert journal.trial_balance() == nets


# -- global invariants ------------------------------------------------------------------

def test_every_entry_balances(golden_run):
    for entry in golden_run.journal.entries:
        assert is_balanced(entry)
        assert all(line.amount > ZERO for line in entry.lines)


def test_trial_balance_closure(golden_run):
    nets = golden_run.journal.trial_balance()
    assert sum(nets.values(), ZERO) == ZERO
    assert nets[Account.PERMIT_SURRENDERABLE] == ZERO


def test_empty_journal_trial_balance_all_zero():
    nets = Journal(TokenLedger()).trial_balance()
    assert set(nets) == set(Account)
    assert all(v == ZERO for v in nets.values())


def test_lot_conservation_under_random_activity():
    rng = random.Random(5150)
    driver = LedgerDriver(standard_market(cash="10000000"))
    driver.init_exchange("1", 100000, 2000000)
    journal = Journal(driver.ledger)
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
            assert is_balanced(entry)


endowment = st.tuples(st.integers(0, 2000 * TOKEN), st.integers(0, 500 * TOKEN))


# at least ten transactions per example, so that most examples apply some;
# no shrinking: shrinking a failing sequence takes minutes, the unshrunk
# example is reported in seconds
@settings(max_examples=100, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.fixed_dictionaries({org: endowment for org in "EFV"}),
       st.sampled_from((0, 20 * TOKEN, 7_654_321)), st.booleans(),
       st.lists(transactions, min_size=10, max_size=40))
def test_journal_mirrors_ledger_from_genesis(balances, price, exchange, sequence):
    """From a genesis with permit and emission balances, through random
    transactions: each org's running holdings, its lots and its ledger
    permits agree, its outstanding liability is its ledger emissions, the
    journal's debits equal its credits, and after every event, booked or
    refused, the trial balance is the exact fold of the entries kept."""
    ledger = standard_market()
    if exchange:
        ledger.setup_init_exchange(Fixed(TOKEN // 2), Fixed(2000 * TOKEN),
                                   Fixed(20000 * TOKEN))
    ledger = endowed_genesis(ledger, price, **balances)
    journal = Journal(ledger)

    def check():
        for org_id, record in ledger.registry.items():
            books = journal.books.get(org_id)
            held = books.holdings if books else ZERO
            lots = sum((lot.qty for lot in books.lots), ZERO) if books else ZERO
            assert held == lots == record.permit, org_id
            assert (books.liability_qty if books else ZERO) == record.emission, org_id
        # summed exactly: a per-account net may leave the 64-bit amount range
        assert sum(line.amount.micro if line.side is Side.DR else -line.amount.micro
                   for entry in journal.entries for line in entry.lines) == 0
        check_nets()

    def check_nets():
        # the running nets are an exact fold over the entries kept
        nets = dict.fromkeys(Account, 0)
        for entry in journal.entries:
            for line in entry.lines:
                nets[line.account] += (line.amount.micro if line.side is Side.DR
                                       else -line.amount.micro)
        assert {account: net.micro for account, net in journal.trial_balance().items()} == nets

    check()
    for _, kind, sender, target, cosigner, amount, payload in sequence:
        try:
            event = ledger.apply(Transaction(
                seq=ledger.seq + 1, time="t", kind=kind, sender=sender, target=target,
                cosigner=cosigner, amount=None if amount is None else Fixed(amount),
                payload=payload))
        except LedgerError:
            continue
        try:
            journal.on_event(event)
        except LedgerError as exc:      # a booking overflow ends the fold
            assert exc.code is ErrorCode.INVALID_AMOUNT
            check_nets()
            return
        check()


def test_journal_from_replay_matches_live(golden_run):
    regenerated = Journal(golden_run.genesis)
    replay(golden_run.chainlog, journal=regenerated)
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


def test_export_names_need_no_csv_quoting():
    names = ([account.value for account in Account] + [cls.value for cls in AccountClass]
             + [side.value for side in Side])
    for name in names:
        assert not set(name) & set(',"\r\n'), name


def test_export_matches_a_csv_writer(golden_run):
    # oracle: csv.writer over the lines, stably sorted by event, then debits
    # before credits, then account name
    rows = [(entry.event_ref, line.account.value, line.account.account_class.value,
             line.side.value, str(line.amount), line.side is Side.CR)
            for entry in golden_run.journal.entries for line in entry.lines]
    rows.sort(key=lambda row: (row[0], row[5], row[1]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["event", "account", "class", "side", "amount"])
    writer.writerows(row[:5] for row in rows)
    assert golden_run.journal.export_csv() == out.getvalue()
