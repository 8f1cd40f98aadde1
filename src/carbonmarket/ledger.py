"""The token ledger: the state's records (`Role`, `OrgRecord`,
`ExchangeState`) and the state machine over them.

A single writer applies :class:`Transaction` values in dense sequence order.
Every handler validates all preconditions before touching state, so a
rejected transaction leaves the ledger bit-identical and produces no event.
Successful application returns an :class:`AppliedEvent` holding the realized
effects (trade legs, burn split, price movement) that downstream consumers
(chain log, accounting journal) fold over.

Identities run in simulation mode: a transaction's sender and cosigner
fields are honoured as already-authenticated identities, and the ledger
enforces only *who* must sign each operation.  Three roles exist: the
authority mints allowances, a verifier grants credits and co-signs
emissions, and an enterprise trades and surrenders.  A verifier is an
enterprise too, and an authority is never a verifier.

Every handler checks in one order: it resolves the organisations its kind
names (an unregistered one is `UnknownOrg`), then checks the amount or
payload, then the signers' roles, then the state (balances, projects,
reserve); a transaction with several faults reports the first of these.

Organisations, projects, cash and the exchange come into being only through
the `setup_*` genesis calls, which never pass through `apply` and never
enter the chain log.  The scenario parser builds a scenario's genesis with
them.  `from_state_json` registers orgs with `setup_register_org` and
projects with `_add_project`, so those pass the same checks; it sets cash,
balances, market totals and the exchange directly, and
`_check_loaded_invariants` checks them.

The canonical state JSON is kept incrementally: the ledger caches each org's
encoded fragment in a dict keyed by org id and re-encodes only the orgs
marked stale since the last call, so a digest costs one join and one hash
rather than a re-encoding of the whole registry.  Only `setup_register_org`
adds a key to `registry` and to the cache, so the cache's insertion order
is registry order.  The cache rests on one invariant: `OrgRecord` fields
change only through `TokenLedger` methods, and every such method marks the
record it touches stale (`apply` marks the transaction's sender, target and
cosigner before its handler runs).  Code outside the ledger must treat
`registry` and the records that it and `org()` hand out as read-only.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional, Union

# the log format's vocabulary, whose one home is the chain log; re-exported
# here, where the state machine uses it
from .chainlog import STATE_FORMAT, Transaction, TxKind, parse_state
from .errors import ErrorCode, LedgerError
from .exchange import (quote_buy_tokens, quote_spend_cash, spot_price, validate_anchor,
                       validate_fraction)
from .fixed import ZERO, Fixed


class Role(str, Enum):
    """Role of a registered organisation; its value is how it is written."""

    AUTHORITY = "authority"
    ENTERPRISE = "enterprise"
    VERIFIER = "verifier"

    @property
    def is_authority(self) -> bool:
        return self is Role.AUTHORITY

    @property
    def is_enterprise(self) -> bool:
        return self is not Role.AUTHORITY

    @property
    def is_verifier(self) -> bool:
        return self is Role.VERIFIER


def parse_role(name: Union[Role, str]) -> Role:
    """The role `name` names; any other value is a SchemaError."""
    try:
        return Role(name)
    except ValueError:
        expected = tuple(role.value for role in Role)
        raise LedgerError(ErrorCode.SCHEMA_ERROR,
                          f"unknown role {name!r}; expected one of {expected}") from None


def validate_id(value: str, what: str) -> str:
    """`value` if it is a non-empty string that encodes as UTF-8, as every
    report and log writes it; a lone surrogate such as JSON's `"\\ud800"`
    does not.  Any other value is a SchemaError naming `what` it is."""
    if not isinstance(value, str) or not value:
        raise LedgerError(ErrorCode.SCHEMA_ERROR, f"{what} must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise LedgerError(ErrorCode.SCHEMA_ERROR,
                          f"{what} {value!r} is not encodable as UTF-8") from None
    return value


class OrgRecord:
    """A registered participant with its balances and project set.

    The emission balance is only ever changed by emission minting and by
    token burning; every other operation leaves it alone.
    """

    __slots__ = ("id", "role", "permit", "emission", "cash", "projects")

    def __init__(self, id: str, role: Role, permit: Fixed = ZERO,
                 emission: Fixed = ZERO, cash: Fixed = ZERO,
                 projects: Optional[set[str]] = None):
        self.id = id
        self.role = role
        self.permit = permit
        self.emission = emission
        self.cash = cash
        self.projects: set[str] = set() if projects is None else projects

    @property
    def compliant(self) -> bool:
        """The year-end rule: compliant iff every verified emission has been
        retired by a surrendered permit."""
        return self.emission.is_zero


class ExchangeState:
    """Curve parameters: reserve fraction, live reserve, and the anchor
    (baseline) captured at bootstrap or at the last market adjustment."""

    __slots__ = ("fraction", "reserve", "baseline_supply", "baseline_reserve")

    def __init__(self, fraction: Fixed, reserve: Fixed, baseline_supply: Fixed,
                 baseline_reserve: Fixed):
        self.fraction = fraction
        self.reserve = reserve
        self.baseline_supply = baseline_supply
        self.baseline_reserve = baseline_reserve


def _org_json(record: OrgRecord) -> str:
    """One org's fragment of the canonical state JSON, written directly with
    its keys in sorted order.  This is exactly what `canonical_json` writes
    for the same dict: the amounts are ints, which JSON writes as Python
    does; the role is an ASCII enum value, which needs no escaping; and the
    only text that may need escaping, the id and each project id, goes
    through `encode_basestring_ascii`, the function `canonical_json` writes
    a string with.  A list of strings it writes as those strings between
    brackets, joined by its item separator ","."""
    projects = (",".join(map(encode_basestring_ascii, sorted(record.projects)))
                if record.projects else "")
    return (f'{{"cash":{record.cash.micro},"emission":{record.emission.micro},'
            f'"id":{encode_basestring_ascii(record.id)},"permit":{record.permit.micro},'
            f'"projects":[{projects}],"role":"{record.role._value_}"}}')


class AppliedEvent(NamedTuple):
    """A successfully applied transaction plus its realized effects."""

    tx: Transaction
    price_before: Fixed
    price_after: Fixed
    token_delta: Fixed = ZERO      # exchange trades: signed token leg
    cash_delta: Fixed = ZERO       # exchange trades: signed cash leg
    retired: Fixed = ZERO          # burns: emission tonnes actually retired


_applied = partial(tuple.__new__, AppliedEvent)

class TokenLedger:
    """Registry, balances, market totals, and the exchange, as one state."""

    def __init__(self):
        self.registry: dict[str, OrgRecord] = {}
        self._owners: dict[str, str] = {}      # project id -> owning org id
        self._fragments: dict[str, str] = {}
        self._stale: set[str] = set()
        self.market_permit: Fixed = ZERO
        self.market_emission: Fixed = ZERO
        self.market_price: Fixed = ZERO
        self.exchange: Optional[ExchangeState] = None
        self.seq = 0

    # -- reads ----------------------------------------------------------

    def org(self, org_id: str) -> OrgRecord:
        record = self.registry.get(org_id)
        if record is None:
            raise LedgerError(ErrorCode.UNKNOWN_ORG, f"organisation {org_id!r} is not registered")
        return record

    def copy(self) -> "TokenLedger":
        dup = TokenLedger()
        dup.registry = {k: OrgRecord(v.id, v.role, v.permit, v.emission, v.cash,
                                     set(v.projects))
                        for k, v in self.registry.items()}
        dup._owners = dict(self._owners)
        dup._fragments = dict(self._fragments)
        dup._stale = set(self._stale)
        dup.market_permit = self.market_permit
        dup.market_emission = self.market_emission
        dup.market_price = self.market_price
        ex = self.exchange
        dup.exchange = None if ex is None else ExchangeState(
            ex.fraction, ex.reserve, ex.baseline_supply, ex.baseline_reserve)
        dup.seq = self.seq
        return dup

    # -- canonical serialization -----------------------------------------

    def state_json(self) -> str:
        """Canonical state: minified JSON with sorted keys at every level."""
        for org_id in self._stale:
            if org_id in self._fragments:
                self._fragments[org_id] = _org_json(self.registry[org_id])
        self._stale.clear()
        # Every value below is an int (or the ASCII format name), which
        # json.dumps would write exactly as an f-string does.
        ex = self.exchange
        exchange = "null" if ex is None else (
            f'{{"baseline_reserve":{ex.baseline_reserve.micro},'
            f'"baseline_supply":{ex.baseline_supply.micro},'
            f'"fraction":{ex.fraction.micro},"reserve":{ex.reserve.micro}}}')
        orgs = ",".join(self._fragments.values())
        return (f'{{"exchange":{exchange},"format":"{STATE_FORMAT}",'
                f'"market":{{"emission":{self.market_emission.micro},'
                f'"permit":{self.market_permit.micro},"price":{self.market_price.micro}}},'
                f'"orgs":[{orgs}],"seq":{self.seq}}}')

    def state_digest(self) -> bytes:
        return hashlib.sha256(self.state_json().encode("utf-8")).digest()

    @classmethod
    def from_state_json(cls, text: str) -> "TokenLedger":
        """The state `text` holds; its orgs and projects pass the checks of
        the genesis setup calls.  Only a genesis state (seq 0) must have
        every project owned by an enterprise: `setRole` may later change
        the role of a project's owner."""
        data, seq = parse_state(text)
        try:
            ledger = cls()
            ledger.seq = seq
            market = data["market"]
            ledger.market_permit = Fixed(market["permit"])
            ledger.market_emission = Fixed(market["emission"])
            ledger.market_price = Fixed(market["price"])
            for entry in data["orgs"]:
                record = ledger.setup_register_org(entry["id"], entry["role"])
                record.permit = Fixed(entry["permit"])
                record.emission = Fixed(entry["emission"])
                record.cash = Fixed(entry["cash"])
                projects = entry["projects"]
                if type(projects) is not list:
                    raise LedgerError(ErrorCode.SCHEMA_ERROR,
                                      f"projects of {record.id!r} must be a list")
                for project_id in projects:
                    ledger._add_project(record, project_id, enterprise_only=seq == 0)
            if data["exchange"] is not None:
                ex = data["exchange"]
                ledger.exchange = ExchangeState(
                    fraction=Fixed(ex["fraction"]),
                    reserve=Fixed(ex["reserve"]),
                    baseline_supply=Fixed(ex["baseline_supply"]),
                    baseline_reserve=Fixed(ex["baseline_reserve"]),
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise LedgerError(ErrorCode.SCHEMA_ERROR, f"bad state field: {exc}") from exc
        except LedgerError as exc:  # an org or project the setup calls refuse
            raise LedgerError(ErrorCode.SCHEMA_ERROR, f"bad state org: {exc.message}") from exc
        ledger._check_loaded_invariants()
        return ledger

    def _check_loaded_invariants(self):
        permits, emissions = ZERO, ZERO
        for record in self.registry.values():
            if record.permit.is_negative or record.emission.is_negative \
                    or record.cash.is_negative:
                raise LedgerError(ErrorCode.SCHEMA_ERROR,
                                  f"negative balance on {record.id!r}")
            permits += record.permit
            emissions += record.emission
        if permits != self.market_permit or emissions != self.market_emission:
            raise LedgerError(ErrorCode.SCHEMA_ERROR,
                              "market totals do not match the balance sums")
        if self.market_price.is_negative:
            raise LedgerError(ErrorCode.SCHEMA_ERROR, "negative market price")
        ex = self.exchange
        if ex is not None:
            try:
                validate_fraction(ex.fraction)
            except LedgerError as exc:      # a fault of the loaded state, like the rest
                raise LedgerError(ErrorCode.SCHEMA_ERROR, exc.message) from None
            if ex.reserve.is_negative:
                raise LedgerError(ErrorCode.SCHEMA_ERROR, "negative exchange reserve")
            # a genesis anchor has a positive supply and `_rebase_supply` only
            # moves it to a positive one; a full sell-off can empty the reserve
            if not ex.baseline_supply.is_positive:
                raise LedgerError(ErrorCode.SCHEMA_ERROR,
                                  "exchange baseline supply must be positive")
            if ex.baseline_reserve.is_negative:
                raise LedgerError(ErrorCode.SCHEMA_ERROR, "negative exchange baseline reserve")

    # -- genesis setup (declarative, before the first transaction) --------

    def setup_register_org(self, org_id: str, role: Union[Role, str]) -> OrgRecord:
        validate_id(org_id, "organisation id")
        role = parse_role(role)
        if org_id in self.registry:
            raise LedgerError(ErrorCode.DUPLICATE_ID,
                              f"organisation {org_id!r} already registered")
        record = OrgRecord(id=org_id, role=role)
        self.registry[org_id] = record
        self._fragments[org_id] = ""
        self._stale.add(org_id)
        return record

    def setup_register_project(self, owner: str, project_id: str) -> OrgRecord:
        return self._add_project(self.org(owner), project_id, enterprise_only=True)

    def _add_project(self, owner: OrgRecord, project_id: str, *,
                     enterprise_only: bool) -> OrgRecord:
        validate_id(project_id, "project id")
        if enterprise_only and not owner.role.is_enterprise:
            raise LedgerError(ErrorCode.UNAUTHORIZED, "projects are owned by enterprises")
        holder = self._owners.get(project_id)
        if holder is not None:
            raise LedgerError(ErrorCode.DUPLICATE_ID,
                              f"project {project_id!r} already registered to {holder!r}")
        self._stale.add(owner.id)
        owner.projects.add(project_id)
        self._owners[project_id] = owner.id
        return owner

    def setup_set_cash(self, org_id: str, amount: Fixed) -> OrgRecord:
        """Scenario cash faucet; genesis only, never a logged transaction."""
        if amount.is_negative:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "cash balances cannot be negative")
        record = self.org(org_id)
        self._stale.add(org_id)
        record.cash = amount
        return record

    def setup_init_exchange(self, fraction: Fixed, baseline_supply: Fixed,
                            baseline_reserve: Fixed) -> ExchangeState:
        validate_anchor(fraction, baseline_supply, baseline_reserve)
        if self.exchange is not None:
            raise LedgerError(ErrorCode.EXCHANGE_ACTIVE, "exchange already initialised")
        self.market_price = spot_price(fraction, baseline_supply, baseline_reserve,
                                       baseline_supply)
        self.exchange = ExchangeState(fraction=fraction, reserve=baseline_reserve,
                                      baseline_supply=baseline_supply,
                                      baseline_reserve=baseline_reserve)
        return self.exchange

    # -- transaction application ------------------------------------------

    def apply(self, tx: Transaction) -> AppliedEvent:
        if tx.seq != self.seq + 1:
            raise LedgerError(ErrorCode.SEQ_GAP,
                              f"expected seq {self.seq + 1}, got {tx.seq}")
        handler = _HANDLERS[tx.kind]
        # Handlers touch no org but these three, and compute every new value
        # before assigning any, so an amount that overflows the 64-bit range
        # is rejected with the state untouched.
        self._stale.update((tx.sender, tx.target, tx.cosigner))
        try:
            event = handler(self, tx)
        except OverflowError as exc:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, f"{tx.kind.value}: {exc}") from exc
        self.seq = tx.seq
        return event

    # -- shared validation --------------------------------------------------

    def _positive_amount(self, tx: Transaction) -> Fixed:
        if tx.amount is None or tx.amount <= ZERO:
            raise LedgerError(ErrorCode.ZERO_AMOUNT, "amount must be positive")
        return tx.amount

    def _signed_amount(self, tx: Transaction) -> Fixed:
        if tx.amount is None or tx.amount.is_zero:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "amount must be nonzero")
        return tx.amount

    def _authority(self, record: OrgRecord):
        if not record.role.is_authority:
            raise LedgerError(ErrorCode.UNAUTHORIZED,
                              f"{record.id!r} must hold the authority role")

    def _verifier(self, record: OrgRecord):
        if not record.role.is_verifier:
            raise LedgerError(ErrorCode.UNAUTHORIZED, f"{record.id!r} must hold verifier status")

    def _active_exchange(self) -> ExchangeState:
        if self.exchange is None:
            raise LedgerError(ErrorCode.EXCHANGE_INACTIVE, "exchange has not been initialised")
        return self.exchange

    def _payload_fixed(self, tx: Transaction, key: str) -> Fixed:
        value = tx.payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise LedgerError(ErrorCode.SCHEMA_ERROR,
                              f"{tx.kind.value} payload field {key!r} must be integer micro-units")
        return Fixed(value)

    def _payload_str(self, tx: Transaction, key: str) -> str:
        value = tx.payload.get(key)
        if not isinstance(value, str) or not value:
            raise LedgerError(ErrorCode.SCHEMA_ERROR,
                              f"{tx.kind.value} payload field {key!r} must be a non-empty string")
        return value

    def _event(self, tx: Transaction, token_delta: Fixed = ZERO,
               cash_delta: Fixed = ZERO, retired: Fixed = ZERO) -> AppliedEvent:
        price = self.market_price
        return _applied((tx, price, price, token_delta, cash_delta, retired))

    # -- handlers -------------------------------------------------------------

    def _apply_set_role(self, tx: Transaction) -> AppliedEvent:
        target = self.org(tx.target)
        sender = self.org(tx.sender)
        role = parse_role(self._payload_str(tx, "role"))
        self._authority(sender)
        if target.role is role:
            raise LedgerError(ErrorCode.NO_CHANGE,
                              f"{tx.target!r} already holds role {role.value!r}")
        target.role = role
        return self._event(tx)

    def _apply_issue(self, tx: Transaction) -> AppliedEvent:
        """`mintPermit` (by an authority) or `grantPermit` (by a verifier, to
        a project owner): the target's permits and the market total grow."""
        target = self.org(tx.target)
        sender = self.org(tx.sender)
        amount = self._positive_amount(tx)
        if tx.kind is TxKind.MINT_PERMIT:
            self._authority(sender)
        else:
            self._verifier(sender)
            if not target.projects:
                raise LedgerError(ErrorCode.NO_PROJECT,
                                  f"{tx.target!r} owns no registered emissions-reduction project")
        target.permit, self.market_permit = (target.permit + amount,
                                             self.market_permit + amount)
        return self._event(tx)

    def _apply_mint_emission(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        cosigner = self.org(tx.cosigner)
        amount = self._positive_amount(tx)
        self._verifier(cosigner)
        if not sender.role.is_enterprise:
            raise LedgerError(ErrorCode.UNAUTHORIZED, "only enterprises record emissions")
        sender.emission, self.market_emission = (sender.emission + amount,
                                                 self.market_emission + amount)
        return self._event(tx)

    def _apply_transfer_permit(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        target = self.org(tx.target)
        amount = self._positive_amount(tx)
        if amount > sender.permit:
            raise LedgerError(ErrorCode.INSUFFICIENT_BALANCE,
                              f"{tx.sender!r} holds {sender.permit} permits, cannot move {amount}")
        # Both balances stay within the market total, so neither can overflow;
        # updating in turn keeps a self-transfer an identity.
        sender.permit -= amount
        target.permit += amount
        return self._event(tx)

    def _apply_burn_token(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        amount = self._positive_amount(tx)
        if amount > sender.permit:
            raise LedgerError(ErrorCode.INSUFFICIENT_BALANCE,
                              f"{tx.sender!r} holds {sender.permit} permits, cannot burn {amount}")
        retired = min(amount, sender.emission)
        sender.emission -= retired
        sender.permit -= amount
        self.market_permit -= amount
        self.market_emission -= retired
        return self._event(tx, retired=retired)

    def _apply_trade(self, tx: Transaction) -> AppliedEvent:
        """`tradeToken` (a signed token amount) or `convertCash` (a signed
        cash amount) against the exchange.  The kind picks the quote; the
        trade is then refused only for its own two legs: the sender must
        hold the cash it pays and the permits it sells.  The sender's permit
        and cash, the market permit total and the reserve move by the legs."""
        sender = self.org(tx.sender)
        amount = self._signed_amount(tx)
        exchange = self._active_exchange()
        quote = quote_buy_tokens if tx.kind is TxKind.TRADE_TOKEN else quote_spend_cash
        legs = quote(exchange.fraction, self.market_permit, exchange.reserve, amount)
        tokens, cash = legs.tokens_delta, legs.cash_delta
        if cash > sender.cash:
            raise LedgerError(ErrorCode.INSUFFICIENT_CASH,
                              f"buy needs {cash}, {tx.sender!r} holds {sender.cash}")
        if -tokens > sender.permit:
            raise LedgerError(ErrorCode.INSUFFICIENT_BALANCE,
                              f"{tx.sender!r} holds {sender.permit} permits, "
                              f"cannot sell {-tokens}")
        permit, market = sender.permit + tokens, self.market_permit + tokens
        balance, reserve = sender.cash - cash, exchange.reserve + cash
        sender.permit, self.market_permit, sender.cash, exchange.reserve = \
            permit, market, balance, reserve
        return self._event(tx, token_delta=tokens, cash_delta=cash)

    def _rebase_supply(self) -> Fixed:
        # Anchor market adjustments at the live supply; fall back to the old
        # baseline while no tokens circulate yet.
        if self.market_permit > ZERO:
            return self.market_permit
        return self.exchange.baseline_supply

    def _apply_set_reserve_fraction(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        fraction = validate_fraction(self._payload_fixed(tx, "fraction"))
        self._authority(sender)
        exchange = self._active_exchange()
        exchange.baseline_supply = self._rebase_supply()
        exchange.baseline_reserve = exchange.reserve
        exchange.fraction = fraction
        return self._event(tx)

    def _apply_adjust_reserve(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        delta = tx.amount
        if delta is None:
            raise LedgerError(ErrorCode.INVALID_AMOUNT, "reserve delta is required")
        self._authority(sender)
        exchange = self._active_exchange()
        if delta.is_zero:
            return self._event(tx)  # explicit no-op, state untouched
        reserve = exchange.reserve + delta
        if reserve <= ZERO:
            raise LedgerError(ErrorCode.RESERVE_EXHAUSTED,
                              f"reserve {exchange.reserve} + delta {delta} must stay positive")
        exchange.baseline_supply = self._rebase_supply()
        exchange.reserve = exchange.baseline_reserve = reserve
        return self._event(tx)

    def _apply_set_price(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        price = self._payload_fixed(tx, "price")
        if price <= ZERO:
            raise LedgerError(ErrorCode.INVALID_PRICE,
                              f"market price must be positive, got {price}")
        self._authority(sender)
        price_before = self.market_price
        if self.exchange is not None:
            # Re-tune the reserve so the curve quotes at the declared price:
            # C = F * s * P, rebased at the live supply.
            exchange = self.exchange
            supply = self._rebase_supply()
            reserve = price.mul(exchange.fraction).mul(supply)
            exchange.baseline_supply = supply
            exchange.reserve = exchange.baseline_reserve = reserve
        self.market_price = price
        return _applied((tx, price_before, price, ZERO, ZERO, ZERO))


_HANDLERS: dict[TxKind, Callable[[TokenLedger, Transaction], AppliedEvent]] = {
    TxKind.SET_ROLE: TokenLedger._apply_set_role,
    TxKind.MINT_PERMIT: TokenLedger._apply_issue,
    TxKind.GRANT_PERMIT: TokenLedger._apply_issue,
    TxKind.MINT_EMISSION: TokenLedger._apply_mint_emission,
    TxKind.TRANSFER_PERMIT: TokenLedger._apply_transfer_permit,
    TxKind.BURN_TOKEN: TokenLedger._apply_burn_token,
    TxKind.TRADE_TOKEN: TokenLedger._apply_trade,
    TxKind.CONVERT_CASH: TokenLedger._apply_trade,
    TxKind.SET_RESERVE_FRACTION: TokenLedger._apply_set_reserve_fraction,
    TxKind.ADJUST_RESERVE: TokenLedger._apply_adjust_reserve,
    TxKind.SET_PRICE: TokenLedger._apply_set_price,
}
