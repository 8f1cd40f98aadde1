"""Double-entry carbon accounting over the applied-event stream.

The journal is a pure fold: feed it every applied event in order and it
produces balanced entries under a fair-value policy.  Holdings are tracked
as FIFO lots per organisation; each lot holds a quantity and, for permits
received free of charge, the issuance price at which deferred income was
recognised.  Purchased and transferred-in lots carry no deferred income.
Each organisation's books keep the lots' total quantity as a running sum,
updated where a lot enters and in `_consume`, so a price checkpoint costs
one multiplication per holder however many lots it holds, and none for
books that hold nothing and owe nothing.

The books open on the genesis ledger: genesis permits become one lot with
no issue price, and genesis emissions an outstanding surrender liability
at the genesis price.  Opening balances book no entry.

`Account` is the chart of accounts: each member declares the account's
name and class, in trial-balance order.

Policy summary:

* Free issuance (allowances or credits) recognises the asset against
  deferred income at the prevailing market price.
* Transfers release the sender's deferred income at issuance price into an
  "Emission rights" liability; the receiver gains one lot of the transferred
  quantity with no issue price.  A transfer to oneself, which the ledger
  applies as an identity, books nothing and leaves the lots as they are.
* Recording emissions releases deferred income at the issue price of the
  first lot, in FIFO order, that carries one (none if no lot does), and
  accrues an "Expenses / Permit surrenderable" pair at the prevailing price
  for the tonnes emitted.
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

Every amount the journal keeps is an int count of micro-units, products
rounded as `Fixed.mul` rounds them: lots, books, and each line, the plain
triple (account, side, micro); only `trial_balance()` hands out `Fixed`s.
Every handler books through `Journal._post`, which drops non-positive
lines, checks that the entry balances exactly, and carries each line into
a running net per account.  `fixed.py` bounds, refuses and writes every
amount: an event whose booking leaves its 64-bit range (a line, an entry's
total, a running net, an org's holdings or its liability) is refused with
`InvalidAmount` in the words of `fixed.OUT_OF_RANGE` (a running net names
its account), and records no entry and no net change, even if it posted
one before overflowing; the lots may then no longer mirror the ledger, so
the fold stops there (as `run_scenario` and `journal` do).  The export
writes each amount with `fixed.micro_text`.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .errors import ErrorCode, LedgerError
from .fixed import _LIMIT, OUT_OF_RANGE, SCALE, Fixed, _fixed, _half_even, fits, micro_text
from .ledger import AppliedEvent, TokenLedger, TxKind


class AccountClass(Enum):
    ASSET = "Asset"
    LIABILITY = "Liability"
    EQUITY = "Equity"


class Account(Enum):
    PERMIT_ALLOWANCES = "Emission permit-Allowances", AccountClass.ASSET
    PERMIT_CREDITS = "Emission permit-Credits", AccountClass.ASSET
    EMISSION_PERMIT = "Emission permit", AccountClass.ASSET
    DEFERRED_INCOME = "Deferred income", AccountClass.LIABILITY
    EMISSION_RIGHTS = "Emission rights", AccountClass.LIABILITY
    GAIN_ON_REVALUATION = "Gain on revaluation", AccountClass.EQUITY
    LOSS_ON_REVALUATION = "Loss on revaluation", AccountClass.EQUITY
    INCOME = "Income", AccountClass.EQUITY
    EXPENSES_EMISSIONS = "Expenses-Emissions", AccountClass.EQUITY
    PERMIT_SURRENDERABLE = "Permit surrenderable", AccountClass.LIABILITY
    CASH = "Cash", AccountClass.ASSET

    def __new__(cls, name: str, account_class: AccountClass) -> Account:
        member = object.__new__(cls)
        member._value_ = name
        member.account_class = account_class
        return member

    # members are singletons that compare by identity; the identity hash
    # spares the journal's per-line dict lookups Enum's Python-level __hash__
    __hash__ = object.__hash__


class Side(Enum):
    DR = "Dr"
    CR = "Cr"

    __hash__ = object.__hash__      # as for Account


DR, CR = Side.DR, Side.CR

# The export order of the lines of one event: debits first, then by account name.
_EXPORT_KEYS = sorted(((account, side) for side in Side for account in Account),
                      key=lambda key: (key[1] is Side.CR, key[0].value))
# Per side, then per account, so that a lookup builds no key tuple: its rank
# in that order and its "account,class,side" text, which needs no CSV
# quoting: no name holds a comma, quote or line break.
_ROW = {side: {account: (_EXPORT_KEYS.index((account, side)),
                         f"{account.value},{account.account_class.value},{side.value}")
               for account in Account} for side in Side}
_EVENT_REF = itemgetter(0)      # of a JournalEntry
_RANK = itemgetter(0)           # of an export row: (rank, text, micro)


JournalLine = tuple[Account, Side, int]        # a positive amount in micro-units


class JournalEntry(NamedTuple):
    """One balanced record; event_ref is the seq of the triggering
    transaction (price checkpoints included, they are transactions too)."""

    event_ref: int
    org: str
    lines: tuple[JournalLine, ...]


# an entry built straight from a tuple, skipping the Python-level __new__
_entry = partial(tuple.__new__, JournalEntry)


class Lot:
    """A FIFO holding slice: a quantity, with the issuance price attached
    while deferred income remains to release (None for purchased and
    transferred-in lots); both in micro-units."""

    __slots__ = ("qty", "issue")

    def __init__(self, qty: int, issue: Optional[int]):
        self.qty = qty
        self.issue = issue


class OrgBooks:
    __slots__ = ("lots", "holdings", "liability_qty", "liability_balance")

    def __init__(self):
        self.lots: list[Lot] = []
        self.holdings = 0               # running sum of the lots' qty
        self.liability_qty = 0          # outstanding emission tonnes
        self.liability_balance = 0      # Permit surrenderable at marked price

    def add_lot(self, qty: int, issue: Optional[int]):
        self.lots.append(Lot(qty, issue))
        self.holdings = fits(self.holdings + qty)


class Journal:
    """Fold applied events into balanced journal entries."""

    def __init__(self, genesis: TokenLedger):
        """Open the books on `genesis`: an org's genesis permits become one
        lot with no issue price and its genesis emissions its outstanding
        liability at the genesis price.  Opening balances book no entry."""
        # an org's books open on first touch, and a revaluation posts in that order
        self.books: defaultdict[str, OrgBooks] = defaultdict(OrgBooks)
        self.entries: list[JournalEntry] = []
        self._nets: dict[Account, int] = {account: 0 for account in Account}
        price = genesis.market_price.micro
        for record in genesis.registry.values():
            if record.permit.is_zero and record.emission.is_zero:
                continue
            books = self.books[record.id]
            if not record.permit.is_zero:
                books.add_lot(record.permit.micro, None)
            owed = books.liability_qty = record.emission.micro
            try:
                books.liability_balance = fits(_half_even(owed * price, SCALE))
            except OverflowError as exc:
                raise LedgerError(ErrorCode.INVALID_AMOUNT,
                                  f"cannot open {record.id!r} at genesis: {exc}") from exc

    # -- event dispatch ----------------------------------------------------

    def on_event(self, event: AppliedEvent) -> list[JournalEntry]:
        """Book one event; returns the entries it added.  A refused event
        leaves the entries and the running nets as they were."""
        start = len(self.entries)
        handler = _JOURNAL_HANDLERS.get(event.tx.kind)
        if handler is not None:
            nets = self._nets.copy()
            try:
                handler(self, event)
            except OverflowError as exc:
                del self.entries[start:]
                self._nets = nets
                tx = event.tx
                raise LedgerError(ErrorCode.INVALID_AMOUNT,
                                  f"cannot book seq {tx.seq} ({tx.kind.value}): {exc}") from exc
        return self.entries[start:]

    def _post(self, event: AppliedEvent, org: str, *lines: JournalLine):
        """Append one entry of the positive (account, side, micro) `lines`,
        if there are any, and carry them into the running nets."""
        posted = [line for line in lines if line[2] > 0]
        if not posted:
            return
        nets = self._nets
        debits = credits = 0
        for account, side, micro in posted:
            if micro >= _LIMIT:
                raise OverflowError(OUT_OF_RANGE)
            if side is DR:
                debits += micro
                net = nets[account] + micro
            else:
                credits += micro
                net = nets[account] - micro
            if abs(net) >= _LIMIT:
                raise OverflowError(f"the running net of {account.value!r} "
                                    f"exceeds the representable range")
            nets[account] = net
        if debits != credits:
            raise ValueError(f"unbalanced journal entry for event {event.tx.seq}")
        if debits >= _LIMIT:    # an entry's total must fit the amount range, like its lines
            raise OverflowError(OUT_OF_RANGE)
        self.entries.append(_entry((event.tx.seq, org, tuple(posted))))

    def _on_issue(self, event: AppliedEvent):
        tx = event.tx
        account = (Account.PERMIT_ALLOWANCES if tx.kind is TxKind.MINT_PERMIT
                   else Account.PERMIT_CREDITS)
        qty, price = tx.amount.micro, event.price_after.micro
        self.books[tx.target].add_lot(qty, price)
        value = _half_even(qty * price, SCALE)
        self._post(event, tx.target, (account, DR, value),
                   (Account.DEFERRED_INCOME, CR, value))

    def _on_mint_emission(self, event: AppliedEvent):
        qty = event.tx.amount.micro
        org = event.tx.sender
        books = self.books[org]
        issue = next((lot.issue for lot in books.lots if lot.issue is not None), 0)
        released = _half_even(qty * issue, SCALE)
        self._post(event, org, (Account.DEFERRED_INCOME, DR, released),
                   (Account.INCOME, CR, released))

        accrual = _half_even(qty * event.price_after.micro, SCALE)
        books.liability_qty = fits(books.liability_qty + qty)
        books.liability_balance = fits(books.liability_balance + accrual)
        self._post(event, org, (Account.EXPENSES_EMISSIONS, DR, accrual),
                   (Account.PERMIT_SURRENDERABLE, CR, accrual))

    def _on_transfer(self, event: AppliedEvent):
        tx = event.tx
        if tx.sender == tx.target:      # the ledger applies it as an identity
            return
        released = self._consume(self.books[tx.sender], tx.amount.micro, tx.sender)
        self.books[tx.target].add_lot(tx.amount.micro, None)
        self._post(event, tx.sender, (Account.DEFERRED_INCOME, DR, released),
                   (Account.EMISSION_RIGHTS, CR, released))

    def _on_trade(self, event: AppliedEvent):
        org = event.tx.sender
        books = self.books[org]
        tokens = event.token_delta.micro
        cash = abs(event.cash_delta.micro)
        if tokens > 0:
            books.add_lot(tokens, None)
            self._post(event, org, (Account.EMISSION_PERMIT, DR, cash),
                       (Account.CASH, CR, cash))
        else:
            released = self._consume(books, -tokens, org)
            self._post(event, org,
                       (Account.CASH, DR, cash), (Account.EMISSION_PERMIT, CR, cash),
                       (Account.DEFERRED_INCOME, DR, released), (Account.INCOME, CR, released))

    def _on_burn(self, event: AppliedEvent):
        org = event.tx.sender
        qty = event.tx.amount.micro
        price = event.price_after.micro
        retired = event.retired.micro
        books = self.books[org]
        # the release books no line here, but its range is checked as it is
        # for a transfer or a sale: the sum only grows, so the final one will do
        fits(self._consume(books, qty, org))

        balance = books.liability_balance
        surrender = min(_half_even(retired * price, SCALE), balance)
        total_value = _half_even(qty * price, SCALE)
        books.liability_qty = fits(books.liability_qty - retired)
        books.liability_balance = fits(balance - surrender)
        self._post(event, org, (Account.PERMIT_SURRENDERABLE, DR, surrender),
                   (Account.EXPENSES_EMISSIONS, DR, total_value - surrender),
                   (Account.EMISSION_PERMIT, CR, total_value))

    def _on_price_change(self, event: AppliedEvent):
        old, new = event.price_before.micro, event.price_after.micro
        if new == old:
            return
        delta = new - old
        for org, books in self.books.items():
            held = books.holdings
            owed = books.liability_qty
            balance = books.liability_balance
            if not (held or owed or balance):
                continue        # nothing to revalue or re-mark
            asset_delta = _half_even(held * delta, SCALE)
            remeasured = _half_even(owed * new, SCALE)
            liability_delta = remeasured - balance
            # only the non-zero pairs: an asset rise or fall, then a
            # liability rise or fall
            lines = []
            if asset_delta > 0:
                lines += ((Account.EMISSION_PERMIT, DR, asset_delta),
                          (Account.GAIN_ON_REVALUATION, CR, asset_delta))
            elif asset_delta < 0:
                lines += ((Account.LOSS_ON_REVALUATION, DR, -asset_delta),
                          (Account.EMISSION_PERMIT, CR, -asset_delta))
            if liability_delta:
                books.liability_balance = fits(remeasured)
                if liability_delta > 0:
                    lines += ((Account.LOSS_ON_REVALUATION, DR, liability_delta),
                              (Account.PERMIT_SURRENDERABLE, CR, liability_delta))
                else:
                    lines += ((Account.PERMIT_SURRENDERABLE, DR, -liability_delta),
                              (Account.GAIN_ON_REVALUATION, CR, -liability_delta))
            if lines:
                self._post(event, org, *lines)

    # -- lot mechanics -------------------------------------------------------------

    @staticmethod
    def _consume(books: OrgBooks, qty: int, org: str) -> int:
        """Remove `qty` micro-tokens FIFO; returns the deferred income they
        release, in micro-units."""
        lots = books.lots
        remaining = qty
        released = 0
        while remaining > 0:
            if not lots:
                raise ValueError(f"lot underflow for {org!r}: "
                                 f"{_fixed(remaining)} tokens unaccounted")
            head = lots[0]
            held = head.qty
            take = min(held, remaining)
            if head.issue is not None:
                released += _half_even(take * head.issue, SCALE)
            remaining -= take
            if take == held:
                lots.pop(0)
            else:
                head.qty = held - take
        books.holdings -= qty       # the lots held it: it stays in range
        return released

    # -- reporting -----------------------------------------------------------------

    def trial_balance(self) -> dict[Account, Fixed]:
        """Per-account net debit (Dr - Cr); liabilities and equity normally
        carry a negative net under this convention."""
        return {account: _fixed(net) for account, net in self._nets.items()}

    def csv_chunks(self) -> Iterator[str]:
        """The lines as CSV, ordered by event, then debits before credits,
        then account name; ties keep their booking order.  Yields the header
        row, then one chunk per event holding that event's rows, so a writer
        streams them without holding the whole text."""
        yield "event,account,class,side,amount\n"
        # the entries are in event order, so only each event's lines are sorted
        for event_ref, entries in groupby(self.entries, _EVENT_REF):
            rows = [(*_ROW[side][account], micro)
                    for _, _, lines in entries for account, side, micro in lines]
            rows.sort(key=_RANK)                # by rank; a stable sort
            ref = str(event_ref)                # written once per event, not per row
            yield "".join([f"{ref},{text},{micro_text(micro)}\n" for _, text, micro in rows])

    def export_csv(self) -> str:
        return "".join(self.csv_chunks())


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
