"""Double-entry carbon accounting over the applied-event stream.

The journal is a pure fold: feed it every applied event in order and it
produces balanced entries under a fair-value policy.  Holdings are tracked
as FIFO lots per organisation; each lot holds a quantity and, for permits
received free of charge, the issuance price at which deferred income was
recognised.  Purchased and transferred-in lots carry no deferred income.

Policy summary:

* Free issuance (allowances or credits) recognises the asset against
  deferred income at the prevailing market price.
* Transfers release the sender's deferred income at issuance price into an
  "Emission rights" liability; the receiver picks the lots up without
  deferred income.
* Recording emissions releases deferred income at the FIFO issuance price
  and accrues an "Expenses / Permit surrenderable" pair at the prevailing
  price for the tonnes emitted.
* Exchange trades book the realized cash leg against the permit asset;
  sales additionally release deferred income for the lots sold.
* Price checkpoints revalue every holder's permits by holdings x (new - old)
  *and* re-mark every holder's outstanding surrender liability to the new
  price (gain/loss on revaluation), so the liability always values
  outstanding tonnes at the current price and the final surrender
  extinguishes it exactly.
* Burning releases the surrender liability for the tonnes retired (capped
  at its balance); permits surrendered beyond outstanding emissions are
  expensed outright.

Every entry balances exactly in fixed point; zero-amount lines are dropped.
An event whose booking overflows the 64-bit amount range is refused with
`InvalidAmount` and records no entry; the lots may then no longer mirror the
ledger, so the fold stops there (as `run_scenario` and `journal` do).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ErrorCode, reject
from .fixed import ZERO, Money, Quantity
from .ledger import AppliedEvent, TxKind


class AccountClass(Enum):
    ASSET = "Asset"
    LIABILITY = "Liability"
    EQUITY = "Equity"


class Account(Enum):
    PERMIT_ALLOWANCES = "Emission permit-Allowances"
    PERMIT_CREDITS = "Emission permit-Credits"
    EMISSION_PERMIT = "Emission permit"
    DEFERRED_INCOME = "Deferred income"
    EMISSION_RIGHTS = "Emission rights"
    GAIN_ON_REVALUATION = "Gain on revaluation"
    LOSS_ON_REVALUATION = "Loss on revaluation"
    INCOME = "Income"
    EXPENSES_EMISSIONS = "Expenses-Emissions"
    PERMIT_SURRENDERABLE = "Permit surrenderable"
    CASH = "Cash"

    @property
    def account_class(self) -> AccountClass:
        return _ACCOUNT_CLASS[self]


_ACCOUNT_CLASS = {
    Account.PERMIT_ALLOWANCES: AccountClass.ASSET,
    Account.PERMIT_CREDITS: AccountClass.ASSET,
    Account.EMISSION_PERMIT: AccountClass.ASSET,
    Account.CASH: AccountClass.ASSET,
    Account.DEFERRED_INCOME: AccountClass.LIABILITY,
    Account.EMISSION_RIGHTS: AccountClass.LIABILITY,
    Account.PERMIT_SURRENDERABLE: AccountClass.LIABILITY,
    Account.GAIN_ON_REVALUATION: AccountClass.EQUITY,
    Account.LOSS_ON_REVALUATION: AccountClass.EQUITY,
    Account.INCOME: AccountClass.EQUITY,
    Account.EXPENSES_EMISSIONS: AccountClass.EQUITY,
}


class Side(Enum):
    DR = "Dr"
    CR = "Cr"


@dataclass(frozen=True)
class JournalLine:
    account: Account
    side: Side
    amount: Money


@dataclass(frozen=True)
class JournalEntry:
    """One balanced record; event_ref is the seq of the triggering
    transaction (price checkpoints included, they are transactions too)."""

    event_ref: int
    org: str
    lines: tuple[JournalLine, ...]

    def total(self, side: Side) -> Money:
        total = ZERO
        for line in self.lines:
            if line.side is side:
                total += line.amount
        return total


@dataclass
class Lot:
    """A FIFO holding slice: a quantity, with the issuance price attached
    while deferred income remains to release (None for purchased and
    transferred-in lots)."""

    qty: Quantity
    issue: Optional[Money]


@dataclass
class OrgBooks:
    lots: list[Lot] = field(default_factory=list)
    liability_qty: Quantity = ZERO       # outstanding emission tonnes
    liability_balance: Money = ZERO      # Permit surrenderable at marked price

    def holdings(self) -> Quantity:
        total = ZERO
        for lot in self.lots:
            total += lot.qty
        return total


class _EntryBuilder:
    def __init__(self, event_ref: int, org: str):
        self.event_ref = event_ref
        self.org = org
        self.lines: list[JournalLine] = []

    def dr(self, account: Account, amount: Money):
        if amount > ZERO:
            self.lines.append(JournalLine(account, Side.DR, amount))

    def cr(self, account: Account, amount: Money):
        if amount > ZERO:
            self.lines.append(JournalLine(account, Side.CR, amount))

    def build(self) -> Optional[JournalEntry]:
        if not self.lines:
            return None
        entry = JournalEntry(self.event_ref, self.org, tuple(self.lines))
        if entry.total(Side.DR) != entry.total(Side.CR):
            raise ValueError(f"unbalanced journal entry for event {self.event_ref}")
        return entry


class Journal:
    """Fold applied events into balanced journal entries."""

    def __init__(self):
        self.books: dict[str, OrgBooks] = {}
        self.entries: list[JournalEntry] = []

    def books_for(self, org: str) -> OrgBooks:
        books = self.books.get(org)
        if books is None:
            books = OrgBooks()
            self.books[org] = books
        return books

    # -- event dispatch ----------------------------------------------------

    def on_event(self, event: AppliedEvent) -> list[JournalEntry]:
        handler = _JOURNAL_HANDLERS.get(event.tx.kind)
        produced: list[JournalEntry] = []
        if handler is not None:
            try:
                produced = handler(self, event)
            except OverflowError as exc:
                tx = event.tx
                raise reject(ErrorCode.INVALID_AMOUNT,
                             f"cannot book seq {tx.seq} ({tx.kind.value}): {exc}") from exc
        self.entries.extend(produced)
        return produced

    # -- issuance -----------------------------------------------------------

    def _on_issue(self, event: AppliedEvent, account: Account) -> list[JournalEntry]:
        qty = event.tx.amount
        price = event.price_after
        books = self.books_for(event.tx.target)
        books.lots.append(Lot(qty=qty, issue=price))
        entry = _EntryBuilder(event.tx.seq, event.tx.target)
        value = qty.mul(price)
        entry.dr(account, value)
        entry.cr(Account.DEFERRED_INCOME, value)
        built = entry.build()
        return [built] if built else []

    def _on_mint_permit(self, event: AppliedEvent) -> list[JournalEntry]:
        return self._on_issue(event, Account.PERMIT_ALLOWANCES)

    def _on_grant_permit(self, event: AppliedEvent) -> list[JournalEntry]:
        return self._on_issue(event, Account.PERMIT_CREDITS)

    # -- emissions ------------------------------------------------------------

    def _on_mint_emission(self, event: AppliedEvent) -> list[JournalEntry]:
        qty = event.tx.amount
        price = event.price_after
        org = event.tx.sender
        books = self.books_for(org)

        produced: list[JournalEntry] = []
        release_price = self._fifo_issue_price(books)
        if release_price is not None:
            released = qty.mul(release_price)
            entry = _EntryBuilder(event.tx.seq, org)
            entry.dr(Account.DEFERRED_INCOME, released)
            entry.cr(Account.INCOME, released)
            built = entry.build()
            if built:
                produced.append(built)

        accrual = qty.mul(price)
        books.liability_qty += qty
        books.liability_balance += accrual
        entry = _EntryBuilder(event.tx.seq, org)
        entry.dr(Account.EXPENSES_EMISSIONS, accrual)
        entry.cr(Account.PERMIT_SURRENDERABLE, accrual)
        built = entry.build()
        if built:
            produced.append(built)
        return produced

    @staticmethod
    def _fifo_issue_price(books: OrgBooks) -> Optional[Money]:
        for lot in books.lots:
            if lot.issue is not None:
                return lot.issue
        return None

    # -- transfers --------------------------------------------------------------

    def _on_transfer(self, event: AppliedEvent) -> list[JournalEntry]:
        qty = event.tx.amount
        sender_books = self.books_for(event.tx.sender)
        receiver_books = self.books_for(event.tx.target)
        consumed = self._consume(sender_books, qty, event.tx.sender)
        released = ZERO
        for lot in consumed:
            if lot.issue is not None:
                released += lot.qty.mul(lot.issue)
            receiver_books.lots.append(Lot(qty=lot.qty, issue=None))
        entry = _EntryBuilder(event.tx.seq, event.tx.sender)
        entry.dr(Account.DEFERRED_INCOME, released)
        entry.cr(Account.EMISSION_RIGHTS, released)
        built = entry.build()
        return [built] if built else []

    # -- exchange trades -----------------------------------------------------------

    def _on_trade(self, event: AppliedEvent) -> list[JournalEntry]:
        org = event.tx.sender
        books = self.books_for(org)
        tokens = event.token_delta
        cash = abs(event.cash_delta)
        entry = _EntryBuilder(event.tx.seq, org)
        if tokens.is_positive:
            entry.dr(Account.EMISSION_PERMIT, cash)
            entry.cr(Account.CASH, cash)
            books.lots.append(Lot(qty=tokens, issue=None))
        else:
            sold = -tokens
            consumed = self._consume(books, sold, org)
            released = ZERO
            for lot in consumed:
                if lot.issue is not None:
                    released += lot.qty.mul(lot.issue)
            entry.dr(Account.CASH, cash)
            entry.cr(Account.EMISSION_PERMIT, cash)
            entry.dr(Account.DEFERRED_INCOME, released)
            entry.cr(Account.INCOME, released)
        built = entry.build()
        return [built] if built else []

    # -- surrender ---------------------------------------------------------------------

    def _on_burn(self, event: AppliedEvent) -> list[JournalEntry]:
        org = event.tx.sender
        qty = event.tx.amount
        price = event.price_after
        books = self.books_for(org)
        self._consume(books, qty, org)

        retired_value = event.retired.mul(price)
        surrender = min(retired_value, books.liability_balance)
        total_value = qty.mul(price)
        books.liability_qty -= event.retired
        books.liability_balance -= surrender

        entry = _EntryBuilder(event.tx.seq, org)
        entry.dr(Account.PERMIT_SURRENDERABLE, surrender)
        entry.dr(Account.EXPENSES_EMISSIONS, total_value - surrender)
        entry.cr(Account.EMISSION_PERMIT, total_value)
        built = entry.build()
        return [built] if built else []

    # -- price checkpoints ------------------------------------------------------------

    def _on_price_change(self, event: AppliedEvent) -> list[JournalEntry]:
        old, new = event.price_before, event.price_after
        if new == old:
            return []
        produced: list[JournalEntry] = []
        delta = new - old
        for org, books in self.books.items():
            entry = _EntryBuilder(event.tx.seq, org)
            asset_delta = books.holdings().mul(delta)
            if asset_delta > ZERO:
                entry.dr(Account.EMISSION_PERMIT, asset_delta)
                entry.cr(Account.GAIN_ON_REVALUATION, asset_delta)
            elif asset_delta < ZERO:
                entry.dr(Account.LOSS_ON_REVALUATION, -asset_delta)
                entry.cr(Account.EMISSION_PERMIT, -asset_delta)
            remeasured = books.liability_qty.mul(new)
            liability_delta = remeasured - books.liability_balance
            if liability_delta > ZERO:
                entry.dr(Account.LOSS_ON_REVALUATION, liability_delta)
                entry.cr(Account.PERMIT_SURRENDERABLE, liability_delta)
            elif liability_delta < ZERO:
                entry.dr(Account.PERMIT_SURRENDERABLE, -liability_delta)
                entry.cr(Account.GAIN_ON_REVALUATION, -liability_delta)
            books.liability_balance = remeasured
            built = entry.build()
            if built:
                produced.append(built)
        return produced

    # -- lot mechanics -------------------------------------------------------------

    @staticmethod
    def _consume(books: OrgBooks, qty: Quantity, org: str) -> list[Lot]:
        """Remove `qty` tokens FIFO; returns the consumed slices."""
        remaining = qty
        consumed: list[Lot] = []
        while remaining > ZERO:
            if not books.lots:
                raise ValueError(f"lot underflow for {org!r}: {remaining} tokens unaccounted")
            head = books.lots[0]
            take = min(head.qty, remaining)
            consumed.append(Lot(qty=take, issue=head.issue))
            head.qty -= take
            remaining -= take
            if head.qty.is_zero:
                books.lots.pop(0)
        return consumed

    # -- reporting -----------------------------------------------------------------

    def trial_balance(self) -> dict[Account, Money]:
        """Per-account net debit (Dr - Cr); liabilities and equity normally
        carry a negative net under this convention."""
        nets = {account: ZERO for account in Account}
        for entry in self.entries:
            for line in entry.lines:
                if line.side is Side.DR:
                    nets[line.account] += line.amount
                else:
                    nets[line.account] -= line.amount
        return nets

    def export_lines(self) -> list[tuple[int, str, str, str, str]]:
        rows = []
        for entry in self.entries:
            for line in entry.lines:
                rows.append((entry.event_ref,
                             line.account.value,
                             line.account.account_class.value,
                             line.side.value,
                             str(line.amount),
                             line.side is Side.CR))
        rows.sort(key=lambda r: (r[0], r[5], r[1]))
        return [row[:5] for row in rows]

    def export_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["event", "account", "class", "side", "amount"])
        writer.writerows(self.export_lines())
        return out.getvalue()


_JOURNAL_HANDLERS = {
    TxKind.MINT_PERMIT: Journal._on_mint_permit,
    TxKind.GRANT_PERMIT: Journal._on_grant_permit,
    TxKind.MINT_EMISSION: Journal._on_mint_emission,
    TxKind.TRANSFER_PERMIT: Journal._on_transfer,
    TxKind.TRADE_TOKEN: Journal._on_trade,
    TxKind.CONVERT_CASH: Journal._on_trade,
    TxKind.BURN_TOKEN: Journal._on_burn,
    TxKind.SET_PRICE: Journal._on_price_change,
}
