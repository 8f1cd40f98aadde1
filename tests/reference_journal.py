"""README's "Accounting policy", restated as a plain fold over applied events.

The reference the journal is checked against.  It shares no code with
`carbonmarket.journal`: accounts and sides are their printed names, a lot is
a `[qty, issue]` pair of ints (issue None for a lot that carries no deferred
income), books are ints, and every amount is in micro-units.  A product of
a quantity and a price rounds half-even onto the 1e-6 grid.

A booking that leaves the signed 64-bit micro-unit range is refused with
`Refused`, whose text is the reason the journal gives; the refused event
keeps no entry and no net change, and the fold stops there.
"""

SCALE = 10**6
LIMIT = 2**63
OUT_OF_RANGE = "amount exceeds the representable range"

ACCOUNTS = ("Emission permit-Allowances", "Emission permit-Credits", "Emission permit",
            "Deferred income", "Emission rights", "Gain on revaluation",
            "Loss on revaluation", "Income", "Expenses-Emissions",
            "Permit surrenderable", "Cash")


class Refused(Exception):
    """A booking that leaves the 64-bit amount range."""


def product(qty: int, price: int) -> int:
    """qty x price in micro-units, rounded half-even onto the grid."""
    whole, rest = divmod(qty * price, SCALE)
    if 2 * rest > SCALE or (2 * rest == SCALE and whole % 2):
        whole += 1
    return whole


def fits(micro: int) -> int:
    if not -LIMIT < micro < LIMIT:
        raise Refused(OUT_OF_RANGE)
    return micro


class Books:
    def __init__(self):
        self.lots = []          # FIFO [qty, issue] pairs
        self.holdings = 0
        self.owed = 0           # outstanding emission tonnes
        self.balance = 0        # Permit surrenderable, at the marked price

    def add_lot(self, qty: int, issue):
        self.lots.append([qty, issue])
        self.holdings = fits(self.holdings + qty)

    def consume(self, qty: int) -> int:
        """Take `qty` FIFO from the lots; the deferred income they release."""
        released = 0
        remaining = qty
        while remaining:
            assert self.lots, "lot underflow"
            lot = self.lots[0]
            take = min(lot[0], remaining)
            if lot[1] is not None:
                released += product(take, lot[1])
            lot[0] -= take
            remaining -= take
            if not lot[0]:
                del self.lots[0]
        self.holdings -= qty
        return released


class ReferenceJournal:
    def __init__(self, genesis):
        """Open the books on the genesis ledger: an org's permits become one
        lot with no issue price, its emissions a liability at the genesis
        price.  Opening balances book nothing."""
        self.books = {}         # opened on first touch; a revaluation posts in that order
        self.entries = []       # (seq, org, ((account, side, micro), ...))
        self.nets = dict.fromkeys(ACCOUNTS, 0)
        price = genesis.market_price.micro
        for record in genesis.registry.values():
            permit, emission = record.permit.micro, record.emission.micro
            if permit or emission:
                books = self._books(record.id)
                if permit:
                    books.add_lot(permit, None)
                books.owed = emission
                books.balance = fits(product(emission, price))

    def _books(self, org: str) -> Books:
        return self.books.setdefault(org, Books())

    def on_event(self, event) -> list:
        """Book one event; the entries it added.  Raises `Refused` with the
        entries and nets as they were before the event."""
        self._seq = event.tx.seq
        start, nets = len(self.entries), dict(self.nets)
        handler = getattr(self, "_" + event.tx.kind.value, None)
        try:
            if handler is not None:
                handler(event)
        except Refused:
            del self.entries[start:]
            self.nets = nets
            raise
        return self.entries[start:]

    def _post(self, org: str, *lines):
        lines = tuple(line for line in lines if line[2] > 0)
        if not lines:
            return
        for account, side, micro in lines:
            fits(micro)
            net = self.nets[account] + (micro if side == "Dr" else -micro)
            if not -LIMIT < net < LIMIT:
                raise Refused(f"the running net of {account!r} exceeds the representable range")
            self.nets[account] = net
        debits = sum(micro for _, side, micro in lines if side == "Dr")
        assert debits == sum(micro for _, side, micro in lines if side == "Cr")
        fits(debits)
        self.entries.append((self._seq, org, lines))

    # -- the policy, one handler per transaction kind ------------------------

    def _issue(self, event, account: str):
        """Free issuance: the asset against deferred income at the price."""
        tx = event.tx
        qty, price = tx.amount.micro, event.price_after.micro
        self._books(tx.target).add_lot(qty, price)
        value = product(qty, price)
        self._post(tx.target, (account, "Dr", value), ("Deferred income", "Cr", value))

    def _mintPermit(self, event):
        self._issue(event, "Emission permit-Allowances")

    def _grantPermit(self, event):
        self._issue(event, "Emission permit-Credits")

    def _mintEmission(self, event):
        """Release deferred income at the first issue-priced lot; accrue
        the liability at the price."""
        org, qty = event.tx.sender, event.tx.amount.micro
        books = self._books(org)
        issue = next((lot[1] for lot in books.lots if lot[1] is not None), 0)
        released = product(qty, issue)
        self._post(org, ("Deferred income", "Dr", released), ("Income", "Cr", released))
        accrual = product(qty, event.price_after.micro)
        books.owed = fits(books.owed + qty)
        books.balance = fits(books.balance + accrual)
        self._post(org, ("Expenses-Emissions", "Dr", accrual),
                   ("Permit surrenderable", "Cr", accrual))

    def _transferPermit(self, event):
        """The sender releases deferred income into Emission rights; the
        receiver gains one lot with no issue price.  To oneself: nothing."""
        tx = event.tx
        if tx.sender == tx.target:
            return
        qty = tx.amount.micro
        released = self._books(tx.sender).consume(qty)
        self._books(tx.target).add_lot(qty, None)
        self._post(tx.sender, ("Deferred income", "Dr", released),
                   ("Emission rights", "Cr", released))

    def _tradeToken(self, event):
        """The cash leg against the permit asset; a sale also releases the
        deferred income of the lots sold."""
        org = event.tx.sender
        books = self._books(org)
        tokens, cash = event.token_delta.micro, abs(event.cash_delta.micro)
        if tokens > 0:
            books.add_lot(tokens, None)
            self._post(org, ("Emission permit", "Dr", cash), ("Cash", "Cr", cash))
        else:
            released = books.consume(-tokens)
            self._post(org, ("Cash", "Dr", cash), ("Emission permit", "Cr", cash),
                       ("Deferred income", "Dr", released), ("Income", "Cr", released))

    _convertCash = _tradeToken

    def _burnToken(self, event):
        """Release the liability for the tonnes retired, capped at its
        balance; the rest of the permits' value is an expense.  The lots'
        deferred income is not booked, but must fit the amount range."""
        org, qty = event.tx.sender, event.tx.amount.micro
        price, retired = event.price_after.micro, event.retired.micro
        books = self._books(org)
        fits(books.consume(qty))
        surrender = min(product(retired, price), books.balance)
        value = product(qty, price)
        books.owed = fits(books.owed - retired)
        books.balance = fits(books.balance - surrender)
        self._post(org, ("Permit surrenderable", "Dr", surrender),
                   ("Expenses-Emissions", "Dr", value - surrender),
                   ("Emission permit", "Cr", value))

    def _setPrice(self, event):
        """Revalue each holder's permits by holdings x (new - old) and re-mark
        its liability to owed x new, in one entry per org."""
        old, new = event.price_before.micro, event.price_after.micro
        if new == old:
            return
        for org, books in self.books.items():
            lines = []
            asset = product(books.holdings, new - old)
            if asset > 0:
                lines += [("Emission permit", "Dr", asset), ("Gain on revaluation", "Cr", asset)]
            elif asset < 0:
                lines += [("Loss on revaluation", "Dr", -asset),
                          ("Emission permit", "Cr", -asset)]
            remeasured = product(books.owed, new)
            change = remeasured - books.balance
            books.balance = fits(remeasured)
            if change > 0:
                lines += [("Loss on revaluation", "Dr", change),
                          ("Permit surrenderable", "Cr", change)]
            elif change < 0:
                lines += [("Permit surrenderable", "Dr", -change),
                          ("Gain on revaluation", "Cr", -change)]
            self._post(org, *lines)
