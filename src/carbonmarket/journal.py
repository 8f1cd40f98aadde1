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

The handlers compute on the amounts' integer micro-units, rounding
products as `Fixed.mul` does, and build a `Fixed` only for a value the
journal keeps: a line amount, a lot's quantity, an org's holdings and its
liability.  Each of those keeps `Fixed`'s 64-bit range check.  Every handler
books through `Journal._post`, which drops non-positive lines, checks that
the entry balances exactly, and carries each line into a running net per
account; `trial_balance()` returns those nets.  An event whose booking
leaves the 64-bit amount range (a line, an entry's total or an account's
running net) is refused with `InvalidAmount` and records no entry and no
net change, even if it posted one before overflowing; the lots may then no
longer mirror the ledger, so the fold stops there (as `run_scenario` and
`journal` do).
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import ErrorCode, LedgerError
from .fixed import _LIMIT, SCALE, ZERO, Money, Quantity, _fixed, _half_even
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

    # members are singletons that compare by identity; the identity hash
    # spares the journal's per-line dict lookups Enum's Python-level __hash__
    __hash__ = object.__hash__

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

    __hash__ = object.__hash__      # as for Account


DR, CR = Side.DR, Side.CR

# The export order of the lines of one event: debits first, then by account name.
_EXPORT_KEYS = sorted(((account, side) for side in Side for account in Account),
                      key=lambda key: (key[1] is Side.CR, key[0].value))
# Per (account, side): its rank in that order and its "account,class,side"
# text, which needs no CSV quoting: no name holds a comma, quote or line break.
_ROW = {(account, side): (rank, f"{account.value},{account.account_class.value},{side.value}")
        for rank, (account, side) in enumerate(_EXPORT_KEYS)}
_EVENT_REF = itemgetter(0)      # of a JournalEntry
_RANK = itemgetter(0)           # of an export row: (rank, text, micro)


class JournalLine(NamedTuple):
    account: Account
    side: Side
    amount: Money


class JournalEntry(NamedTuple):
    """One balanced record; event_ref is the seq of the triggering
    transaction (price checkpoints included, they are transactions too)."""

    event_ref: int
    org: str
    lines: tuple[JournalLine, ...]


# the records built straight from a tuple, skipping the Python-level __new__
_line = partial(tuple.__new__, JournalLine)
_entry = partial(tuple.__new__, JournalEntry)


class Lot:
    """A FIFO holding slice: a quantity, with the issuance price attached
    while deferred income remains to release (None for purchased and
    transferred-in lots)."""

    __slots__ = ("qty", "issue")

    def __init__(self, qty: Quantity, issue: Optional[Money]):
        self.qty = qty
        self.issue = issue


class OrgBooks:
    __slots__ = ("lots", "holdings", "liability_qty", "liability_balance")

    def __init__(self):
        self.lots: list[Lot] = []
        self.holdings: Quantity = ZERO             # running sum of the lots' qty
        self.liability_qty: Quantity = ZERO        # outstanding emission tonnes
        self.liability_balance: Money = ZERO       # Permit surrenderable at marked price

    def add_lot(self, qty: Quantity, issue: Optional[Money]):
        self.lots.append(Lot(qty, issue))
        self.holdings = _fixed(self.holdings.micro + qty.micro)


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
        for record in genesis.registry.values():
            if record.permit.is_zero and record.emission.is_zero:
                continue
            books = self.books[record.id]
            if not record.permit.is_zero:
                books.add_lot(record.permit, None)
            books.liability_qty = record.emission
            try:
                books.liability_balance = record.emission.mul(genesis.market_price)
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

    def _post(self, event: AppliedEvent, org: str, *lines: tuple[Account, Side, int]):
        """Append one entry of the positive (account, side, micro) `lines`,
        if there are any, and carry them into the running nets."""
        nets = self._nets
        posted = []
        debits = credits = 0
        amount = ZERO
        for account, side, micro in lines:
            if micro <= 0:
                continue
            if micro != amount.micro:      # the two lines of a pair share one amount
                amount = _fixed(micro)
            posted.append(_line((account, side, amount)))
            if side is DR:
                debits += micro
                net = nets[account] + micro
            else:
                credits += micro
                net = nets[account] - micro
            if not -_LIMIT < net < _LIMIT:
                raise OverflowError(f"the running net of {account.value!r} "
                                    f"exceeds the representable range")
            nets[account] = net
        if not posted:
            return
        if debits != credits:
            raise ValueError(f"unbalanced journal entry for event {event.tx.seq}")
        if debits >= _LIMIT:    # an entry's total must fit the amount range, like its lines
            raise OverflowError("amount exceeds the representable range")
        self.entries.append(_entry((event.tx.seq, org, tuple(posted))))

    def _on_issue(self, event: AppliedEvent):
        tx = event.tx
        account = (Account.PERMIT_ALLOWANCES if tx.kind is TxKind.MINT_PERMIT
                   else Account.PERMIT_CREDITS)
        price = event.price_after
        self.books[tx.target].add_lot(tx.amount, price)
        value = _half_even(tx.amount.micro * price.micro, SCALE)
        self._post(event, tx.target, (account, DR, value),
                   (Account.DEFERRED_INCOME, CR, value))

    def _on_mint_emission(self, event: AppliedEvent):
        qty = event.tx.amount.micro
        org = event.tx.sender
        books = self.books[org]
        issue = next((lot.issue for lot in books.lots if lot.issue is not None), ZERO)
        released = _half_even(qty * issue.micro, SCALE)
        self._post(event, org, (Account.DEFERRED_INCOME, DR, released),
                   (Account.INCOME, CR, released))

        accrual = _half_even(qty * event.price_after.micro, SCALE)
        books.liability_qty = _fixed(books.liability_qty.micro + qty)
        books.liability_balance = _fixed(books.liability_balance.micro + accrual)
        self._post(event, org, (Account.EXPENSES_EMISSIONS, DR, accrual),
                   (Account.PERMIT_SURRENDERABLE, CR, accrual))

    def _on_transfer(self, event: AppliedEvent):
        tx = event.tx
        if tx.sender == tx.target:      # the ledger applies it as an identity
            return
        released = self._consume(self.books[tx.sender], tx.amount.micro, tx.sender)
        self.books[tx.target].add_lot(tx.amount, None)
        self._post(event, tx.sender, (Account.DEFERRED_INCOME, DR, released),
                   (Account.EMISSION_RIGHTS, CR, released))

    def _on_trade(self, event: AppliedEvent):
        org = event.tx.sender
        books = self.books[org]
        tokens = event.token_delta
        cash = abs(event.cash_delta.micro)
        if tokens.is_positive:
            books.add_lot(tokens, None)
            self._post(event, org, (Account.EMISSION_PERMIT, DR, cash),
                       (Account.CASH, CR, cash))
        else:
            released = self._consume(books, -tokens.micro, org)
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
        _fixed(self._consume(books, qty, org))

        balance = books.liability_balance.micro
        surrender = min(_half_even(retired * price, SCALE), balance)
        total_value = _half_even(qty * price, SCALE)
        books.liability_qty = _fixed(books.liability_qty.micro - retired)
        books.liability_balance = _fixed(balance - surrender)
        self._post(event, org, (Account.PERMIT_SURRENDERABLE, DR, surrender),
                   (Account.EXPENSES_EMISSIONS, DR, total_value - surrender),
                   (Account.EMISSION_PERMIT, CR, total_value))

    def _on_price_change(self, event: AppliedEvent):
        old, new = event.price_before.micro, event.price_after.micro
        if new == old:
            return
        delta = new - old
        for org, books in self.books.items():
            held = books.holdings.micro
            owed = books.liability_qty.micro
            balance = books.liability_balance.micro
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
                books.liability_balance = _fixed(remeasured)
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
            held = head.qty.micro
            take = min(held, remaining)
            if head.issue is not None:
                released += _half_even(take * head.issue.micro, SCALE)
            remaining -= take
            if take == held:
                lots.pop(0)
            else:
                head.qty = _fixed(held - take)
        books.holdings = _fixed(books.holdings.micro - qty)
        return released

    # -- reporting -----------------------------------------------------------------

    def trial_balance(self) -> dict[Account, Money]:
        """Per-account net debit (Dr - Cr); liabilities and equity normally
        carry a negative net under this convention."""
        return {account: _fixed(net) for account, net in self._nets.items()}

    def export_csv(self) -> str:
        """The lines as CSV, ordered by event, then debits before credits,
        then account name; ties keep their booking order."""
        out = ["event,account,class,side,amount\n"]
        # the entries are in event order, so only each event's lines are sorted
        for event_ref, entries in groupby(self.entries, _EVENT_REF):
            rows = [(*_ROW[account, side], amount.micro)
                    for _, _, lines in entries for account, side, amount in lines]
            rows.sort(key=_RANK)                # by rank; a stable sort
            for _, text, micro in rows:
                digits = str(micro).zfill(7)    # a line amount is positive
                out.append(f"{event_ref},{text},{digits[:-6]}.{digits[-6:]}\n")
        return "".join(out)


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
