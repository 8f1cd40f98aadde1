"""Double-entry carbon accounting over the applied-event stream.

The journal is a pure fold: feed it every applied event in order and it
produces balanced entries under a fair-value policy.  Holdings are tracked
as FIFO lots per organisation; each lot holds a quantity and, for permits
received free of charge, the issuance price at which deferred income was
recognised.  Purchased and transferred-in lots carry no deferred income.
Each organisation's books keep the lots' total quantity as a running sum,
updated where a lot enters and in `_consume`, so a price checkpoint costs
one multiplication per holder however many lots it holds.

The books open on the genesis ledger: genesis permits become one lot with
no issue price, and genesis emissions an outstanding surrender liability
at the genesis price.  Opening balances book no entry.

Policy summary:

* Free issuance (allowances or credits) recognises the asset against
  deferred income at the prevailing market price.
* Transfers release the sender's deferred income at issuance price into an
  "Emission rights" liability; the receiver gains one lot of the transferred
  quantity with no issue price.
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

Every handler books through `Journal._post`, which drops zero-amount lines
and checks that the entry balances exactly in fixed point.  An event whose
booking overflows the 64-bit amount range is refused with `InvalidAmount`
and records no entry, even if it posted one before overflowing; the lots may
then no longer mirror the ledger, so the fold stops there (as `run_scenario`
and `journal` do).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ErrorCode, reject
from .fixed import ZERO, Money, Quantity
from .ledger import AppliedEvent, TokenLedger, TxKind


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
    holdings: Quantity = ZERO            # running sum of the lots' qty
    liability_qty: Quantity = ZERO       # outstanding emission tonnes
    liability_balance: Money = ZERO      # Permit surrenderable at marked price

    def add_lot(self, qty: Quantity, issue: Optional[Money]):
        self.lots.append(Lot(qty=qty, issue=issue))
        self.holdings += qty


def _dr(account: Account, amount: Money) -> JournalLine:
    return JournalLine(account, Side.DR, amount)


def _cr(account: Account, amount: Money) -> JournalLine:
    return JournalLine(account, Side.CR, amount)


class Journal:
    """Fold applied events into balanced journal entries."""

    def __init__(self, genesis: TokenLedger):
        """Open the books on `genesis`: an org's genesis permits become one
        lot with no issue price and its genesis emissions its outstanding
        liability at the genesis price.  Opening balances book no entry."""
        self.books: dict[str, OrgBooks] = {}
        self.entries: list[JournalEntry] = []
        for record in genesis.registry.values():
            if record.permit.is_zero and record.emission.is_zero:
                continue
            books = self.books_for(record.id)
            if not record.permit.is_zero:
                books.add_lot(record.permit, None)
            books.liability_qty = record.emission
            try:
                books.liability_balance = record.emission.mul(genesis.market_price)
            except OverflowError as exc:
                raise reject(ErrorCode.INVALID_AMOUNT,
                             f"cannot open {record.id!r} at genesis: {exc}") from exc

    def books_for(self, org: str) -> OrgBooks:
        books = self.books.get(org)
        if books is None:
            books = OrgBooks()
            self.books[org] = books
        return books

    # -- event dispatch ----------------------------------------------------

    def on_event(self, event: AppliedEvent) -> list[JournalEntry]:
        """Book one event; returns the entries it added."""
        start = len(self.entries)
        handler = _JOURNAL_HANDLERS.get(event.tx.kind)
        if handler is not None:
            try:
                handler(self, event)
            except OverflowError as exc:
                del self.entries[start:]
                tx = event.tx
                raise reject(ErrorCode.INVALID_AMOUNT,
                             f"cannot book seq {tx.seq} ({tx.kind.value}): {exc}") from exc
        return self.entries[start:]

    def _post(self, event: AppliedEvent, org: str, *lines: JournalLine):
        """Append one entry of the non-zero `lines`, if there are any."""
        lines = tuple(line for line in lines if line.amount > ZERO)
        if not lines:
            return
        entry = JournalEntry(event.tx.seq, org, lines)
        if entry.total(Side.DR) != entry.total(Side.CR):
            raise ValueError(f"unbalanced journal entry for event {event.tx.seq}")
        self.entries.append(entry)

    def _on_issue(self, event: AppliedEvent):
        tx = event.tx
        account = (Account.PERMIT_ALLOWANCES if tx.kind is TxKind.MINT_PERMIT
                   else Account.PERMIT_CREDITS)
        price = event.price_after
        self.books_for(tx.target).add_lot(tx.amount, price)
        value = tx.amount.mul(price)
        self._post(event, tx.target, _dr(account, value),
                   _cr(Account.DEFERRED_INCOME, value))

    def _on_mint_emission(self, event: AppliedEvent):
        qty = event.tx.amount
        org = event.tx.sender
        books = self.books_for(org)
        issue = next((lot.issue for lot in books.lots if lot.issue is not None), ZERO)
        released = qty.mul(issue)
        self._post(event, org, _dr(Account.DEFERRED_INCOME, released),
                   _cr(Account.INCOME, released))

        accrual = qty.mul(event.price_after)
        books.liability_qty += qty
        books.liability_balance += accrual
        self._post(event, org, _dr(Account.EXPENSES_EMISSIONS, accrual),
                   _cr(Account.PERMIT_SURRENDERABLE, accrual))

    def _on_transfer(self, event: AppliedEvent):
        tx = event.tx
        released = self._consume(self.books_for(tx.sender), tx.amount, tx.sender)
        self.books_for(tx.target).add_lot(tx.amount, None)
        self._post(event, tx.sender, _dr(Account.DEFERRED_INCOME, released),
                   _cr(Account.EMISSION_RIGHTS, released))

    def _on_trade(self, event: AppliedEvent):
        org = event.tx.sender
        books = self.books_for(org)
        tokens = event.token_delta
        cash = abs(event.cash_delta)
        if tokens.is_positive:
            books.add_lot(tokens, None)
            self._post(event, org, _dr(Account.EMISSION_PERMIT, cash),
                       _cr(Account.CASH, cash))
        else:
            released = self._consume(books, -tokens, org)
            self._post(event, org,
                       _dr(Account.CASH, cash), _cr(Account.EMISSION_PERMIT, cash),
                       _dr(Account.DEFERRED_INCOME, released), _cr(Account.INCOME, released))

    def _on_burn(self, event: AppliedEvent):
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
        self._post(event, org, _dr(Account.PERMIT_SURRENDERABLE, surrender),
                   _dr(Account.EXPENSES_EMISSIONS, total_value - surrender),
                   _cr(Account.EMISSION_PERMIT, total_value))

    def _on_price_change(self, event: AppliedEvent):
        old, new = event.price_before, event.price_after
        if new == old:
            return
        delta = new - old
        for org, books in self.books.items():
            lines = []
            asset_delta = books.holdings.mul(delta)
            if asset_delta > ZERO:
                lines += (_dr(Account.EMISSION_PERMIT, asset_delta),
                          _cr(Account.GAIN_ON_REVALUATION, asset_delta))
            elif asset_delta < ZERO:
                lines += (_dr(Account.LOSS_ON_REVALUATION, -asset_delta),
                          _cr(Account.EMISSION_PERMIT, -asset_delta))
            remeasured = books.liability_qty.mul(new)
            liability_delta = remeasured - books.liability_balance
            if liability_delta > ZERO:
                lines += (_dr(Account.LOSS_ON_REVALUATION, liability_delta),
                          _cr(Account.PERMIT_SURRENDERABLE, liability_delta))
            elif liability_delta < ZERO:
                lines += (_dr(Account.PERMIT_SURRENDERABLE, -liability_delta),
                          _cr(Account.GAIN_ON_REVALUATION, -liability_delta))
            books.liability_balance = remeasured
            self._post(event, org, *lines)

    # -- lot mechanics -------------------------------------------------------------

    @staticmethod
    def _consume(books: OrgBooks, qty: Quantity, org: str) -> Money:
        """Remove `qty` tokens FIFO; returns the deferred income they release."""
        remaining = qty
        released = ZERO
        while remaining > ZERO:
            if not books.lots:
                raise ValueError(f"lot underflow for {org!r}: {remaining} tokens unaccounted")
            head = books.lots[0]
            take = min(head.qty, remaining)
            if head.issue is not None:
                released += take.mul(head.issue)
            head.qty -= take
            remaining -= take
            if head.qty.is_zero:
                books.lots.pop(0)
        books.holdings -= qty
        return released

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
    TxKind.MINT_PERMIT: Journal._on_issue,
    TxKind.GRANT_PERMIT: Journal._on_issue,
    TxKind.MINT_EMISSION: Journal._on_mint_emission,
    TxKind.TRANSFER_PERMIT: Journal._on_transfer,
    TxKind.TRADE_TOKEN: Journal._on_trade,
    TxKind.CONVERT_CASH: Journal._on_trade,
    TxKind.BURN_TOKEN: Journal._on_burn,
    TxKind.SET_PRICE: Journal._on_price_change,
}
