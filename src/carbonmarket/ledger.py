"""The token ledger state machine.

A single writer applies :class:`Transaction` values in dense sequence order.
Every handler validates all preconditions before touching state, so a
rejected transaction leaves the ledger bit-identical and produces no event.
Successful application returns an :class:`AppliedEvent` holding the realized
effects (trade legs, burn split, price movement) that downstream consumers
(chain log, accounting journal) fold over.

Identities run in simulation mode: a transaction's sender and cosigner
fields are honoured as already-authenticated identities, and the ledger
enforces only *who* must sign each operation.

Authorization gates, in the order they are checked for every operation:
unknown organisations first, then amount validity, then role authority, then
operation-specific state (balances, projects, reserve).

Organisations, projects, cash and the exchange come into being only through
the `setup_*` genesis calls, which never pass through `apply` and never
enter the chain log.  The `registerOrg`, `registerProject` and
`initExchange` transaction kinds that once duplicated them are gone; no
writer in this package ever logged them, so a hand-built v1 log holding one
fails verification with `ChainInvalid`.

The canonical state JSON is kept incrementally: the ledger caches each org's
encoded fragment and re-encodes only the orgs marked stale since the last
call, so a digest costs one join and one hash rather than a re-encoding of
the whole registry.  The cache rests on one invariant: `OrgRecord` fields
change only through `TokenLedger` methods, and every such method marks the
record it touches stale (`apply` marks the transaction's sender, target and
cosigner before its handler runs).  Code outside the ledger must treat the
records that `org()` and `registry` hand out as read-only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .domain import (ComplianceReport, OrgRecord, Role, validate_org_id)
from .errors import ErrorCode, LedgerError, reject
from .exchange import (ExchangeState, Quote, quote_buy_tokens, quote_spend_cash,
                       spot_price, validate_anchor, validate_fraction)
from .fixed import ZERO, Fixed, Money, Quantity

STATE_FORMAT = "carbonmarket-state-1"


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _org_json(record: OrgRecord) -> str:
    """One org's fragment of the canonical state JSON."""
    return _canonical({
        "cash": record.cash.micro,
        "emission": record.emission.micro,
        "id": record.id,
        "permit": record.permit.micro,
        "projects": sorted(record.projects),
        "role": record.role.as_string(),
    })


class TxKind(str, Enum):
    """The logged transaction kinds; each value is a scenario action name."""

    SET_ROLE = "setRole"
    MINT_PERMIT = "mintPermit"
    GRANT_PERMIT = "grantPermit"
    MINT_EMISSION = "mintEmission"
    TRANSFER_PERMIT = "transferPermit"
    BURN_TOKEN = "burnToken"
    TRADE_TOKEN = "tradeToken"
    CONVERT_CASH = "convertCash"
    SET_RESERVE_FRACTION = "setReserveFraction"
    ADJUST_RESERVE = "adjustReserve"
    SET_PRICE = "setPrice"


@dataclass(frozen=True)
class Transaction:
    """Canonical form of one requested operation.

    `sender` is the acting identity (the signer for issuance operations);
    `cosigner` carries the verifier co-signature on emission minting.
    Signatures are honoured as authenticated identities (simulation mode):
    the machine enforces *who* must sign, not how.
    """

    seq: int
    time: str
    kind: TxKind
    sender: str = ""
    target: str = ""
    cosigner: str = ""
    amount: Optional[Fixed] = None
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AppliedEvent:
    """A successfully applied transaction plus its realized effects."""

    tx: Transaction
    price_before: Money
    price_after: Money
    token_delta: Quantity = ZERO   # exchange trades: signed token leg
    cash_delta: Money = ZERO       # exchange trades: signed cash leg
    retired: Quantity = ZERO       # burns: emission tonnes actually retired


class TokenLedger:
    """Registry, balances, market totals, and the exchange, as one state."""

    def __init__(self):
        self.registry = {}
        self.market_permit: Quantity = ZERO
        self.market_emission: Quantity = ZERO
        self.market_price: Money = ZERO
        self.exchange: Optional[ExchangeState] = None
        self.seq = 0

    @property
    def registry(self) -> dict[str, OrgRecord]:
        return self._registry

    @registry.setter
    def registry(self, records: dict[str, OrgRecord]):
        # A wholesale replacement leaves every cached fragment stale.
        self._registry = records
        self._fragments: list[str] = [""] * len(records)
        self._slots: dict[str, int] = {org_id: i for i, org_id in enumerate(records)}
        self._stale: set[str] = set(records)

    # -- reads ----------------------------------------------------------

    def org(self, org_id: str) -> OrgRecord:
        record = self.registry.get(org_id)
        if record is None:
            raise reject(ErrorCode.UNKNOWN_ORG, f"organisation {org_id!r} is not registered")
        return record

    def project_owner(self, project_id: str) -> Optional[str]:
        for record in self.registry.values():
            if project_id in record.projects:
                return record.id
        return None

    def compliance_check(self, org_id: str) -> ComplianceReport:
        record = self.org(org_id)
        return ComplianceReport(org=record.id,
                                outstanding_emissions=record.emission,
                                compliant=record.emission.is_zero)

    def spot_price(self) -> Money:
        """Current exchange spot price at the outstanding supply."""
        if self.exchange is None:
            raise reject(ErrorCode.EXCHANGE_INACTIVE, "exchange has not been initialised")
        return spot_price(self.exchange, self.market_permit)

    def copy(self) -> "TokenLedger":
        dup = TokenLedger()
        dup._registry = {k: v.copy() for k, v in self.registry.items()}
        dup._fragments = list(self._fragments)
        dup._slots = dict(self._slots)
        dup._stale = set(self._stale)
        dup.market_permit = self.market_permit
        dup.market_emission = self.market_emission
        dup.market_price = self.market_price
        dup.exchange = self.exchange.copy() if self.exchange else None
        dup.seq = self.seq
        return dup

    # -- canonical serialization -----------------------------------------

    def state_json(self) -> str:
        """Canonical state: minified JSON with sorted keys at every level."""
        for org_id in self._stale:
            slot = self._slots.get(org_id)
            if slot is not None:
                self._fragments[slot] = _org_json(self.registry[org_id])
        self._stale.clear()
        exchange = None
        if self.exchange is not None:
            exchange = {
                "baseline_reserve": self.exchange.baseline_reserve.micro,
                "baseline_supply": self.exchange.baseline_supply.micro,
                "fraction": self.exchange.fraction.micro,
                "reserve": self.exchange.reserve.micro,
            }
        market = {
            "emission": self.market_emission.micro,
            "permit": self.market_permit.micro,
            "price": self.market_price.micro,
        }
        return "".join((
            '{"exchange":', _canonical(exchange),
            ',"format":', _canonical(STATE_FORMAT),
            ',"market":', _canonical(market),
            ',"orgs":[', ",".join(self._fragments),
            '],"seq":', _canonical(self.seq),
            "}",
        ))

    def state_digest(self) -> bytes:
        return hashlib.sha256(self.state_json().encode("utf-8")).digest()

    @classmethod
    def from_state_json(cls, text: str) -> "TokenLedger":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise reject(ErrorCode.SYNTAX_ERROR, f"bad state json: {exc}") from exc
        if not isinstance(data, dict) or data.get("format") != STATE_FORMAT:
            raise reject(ErrorCode.SCHEMA_ERROR, "unrecognised state format")
        try:
            ledger = cls()
            ledger.seq = int(data["seq"])
            market = data["market"]
            ledger.market_permit = Fixed(market["permit"])
            ledger.market_emission = Fixed(market["emission"])
            ledger.market_price = Fixed(market["price"])
            for entry in data["orgs"]:
                record = ledger.setup_register_org(entry["id"],
                                                   Role.from_string(entry["role"]))
                record.permit = Fixed(entry["permit"])
                record.emission = Fixed(entry["emission"])
                record.cash = Fixed(entry["cash"])
                record.projects = set(entry["projects"])
            if data["exchange"] is not None:
                ex = data["exchange"]
                ledger.exchange = ExchangeState(
                    fraction=Fixed(ex["fraction"]),
                    reserve=Fixed(ex["reserve"]),
                    baseline_supply=Fixed(ex["baseline_supply"]),
                    baseline_reserve=Fixed(ex["baseline_reserve"]),
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise reject(ErrorCode.SCHEMA_ERROR, f"bad state field: {exc}") from exc
        except LedgerError as exc:  # an empty or repeated org id
            raise reject(ErrorCode.SCHEMA_ERROR, f"bad state org: {exc.message}") from exc
        ledger._check_loaded_invariants()
        return ledger

    def _check_loaded_invariants(self):
        permits, emissions = ZERO, ZERO
        for record in self.registry.values():
            if record.permit.is_negative or record.emission.is_negative \
                    or record.cash.is_negative:
                raise reject(ErrorCode.SCHEMA_ERROR,
                             f"negative balance on {record.id!r}")
            permits += record.permit
            emissions += record.emission
        if permits != self.market_permit or emissions != self.market_emission:
            raise reject(ErrorCode.SCHEMA_ERROR,
                         "market totals do not match the balance sums")
        if self.exchange is not None:
            validate_fraction(self.exchange.fraction)
            if self.exchange.reserve.is_negative:
                raise reject(ErrorCode.SCHEMA_ERROR, "negative exchange reserve")

    # -- genesis setup (declarative, before the first transaction) --------

    def setup_register_org(self, org_id: str, role: Role) -> OrgRecord:
        validate_org_id(org_id)
        if org_id in self.registry:
            raise reject(ErrorCode.DUPLICATE_ID, f"organisation {org_id!r} already registered")
        record = OrgRecord(id=org_id, role=role)
        self.registry[org_id] = record
        self._slots[org_id] = len(self._fragments)
        self._fragments.append("")
        self._stale.add(org_id)
        return record

    def setup_register_project(self, owner: str, project_id: str) -> OrgRecord:
        owner_rec = self.org(owner)
        if not isinstance(project_id, str) or not project_id:
            raise reject(ErrorCode.SCHEMA_ERROR, "project id must be a non-empty string")
        if not owner_rec.role.is_enterprise:
            raise reject(ErrorCode.UNAUTHORIZED, "projects are owned by enterprises")
        holder = self.project_owner(project_id)
        if holder is not None:
            raise reject(ErrorCode.DUPLICATE_ID,
                         f"project {project_id!r} already registered to {holder!r}")
        self._stale.add(owner)
        owner_rec.projects.add(project_id)
        return owner_rec

    def setup_set_cash(self, org_id: str, amount: Money) -> OrgRecord:
        """Scenario cash faucet; genesis only, never a logged transaction."""
        if amount.is_negative:
            raise reject(ErrorCode.INVALID_AMOUNT, "cash balances cannot be negative")
        record = self.org(org_id)
        self._stale.add(org_id)
        record.cash = amount
        return record

    def setup_init_exchange(self, fraction: Fixed, baseline_supply: Quantity,
                            baseline_reserve: Money) -> ExchangeState:
        validate_anchor(fraction, baseline_supply, baseline_reserve)
        if self.exchange is not None:
            raise reject(ErrorCode.EXCHANGE_ACTIVE, "exchange already initialised")
        exchange = ExchangeState(fraction=fraction, reserve=baseline_reserve,
                                 baseline_supply=baseline_supply,
                                 baseline_reserve=baseline_reserve)
        self.market_price = spot_price(exchange, baseline_supply)
        self.exchange = exchange
        return exchange

    # -- transaction application ------------------------------------------

    def apply(self, tx: Transaction) -> AppliedEvent:
        if tx.seq != self.seq + 1:
            raise reject(ErrorCode.SEQ_GAP,
                         f"expected seq {self.seq + 1}, got {tx.seq}")
        handler = _HANDLERS.get(tx.kind)
        if handler is None:
            raise reject(ErrorCode.SCHEMA_ERROR, f"unknown transaction kind {tx.kind!r}")
        # Handlers touch no org but these three, and compute every new value
        # before assigning any, so an amount that overflows the 64-bit range
        # is rejected with the state untouched.
        self._stale.update((tx.sender, tx.target, tx.cosigner))
        try:
            event = handler(self, tx)
        except OverflowError as exc:
            raise reject(ErrorCode.INVALID_AMOUNT, f"{tx.kind.value}: {exc}") from exc
        self.seq = tx.seq
        return event

    # -- shared validation --------------------------------------------------

    def _positive_amount(self, tx: Transaction) -> Quantity:
        if tx.amount is None or tx.amount <= ZERO:
            raise reject(ErrorCode.ZERO_AMOUNT, "amount must be positive")
        return tx.amount

    def _signed_amount(self, tx: Transaction) -> Fixed:
        if tx.amount is None or tx.amount.is_zero:
            raise reject(ErrorCode.INVALID_AMOUNT, "amount must be nonzero")
        return tx.amount

    def _authority(self, org_id: str) -> OrgRecord:
        record = self.org(org_id)
        if not record.role.is_authority:
            raise reject(ErrorCode.UNAUTHORIZED, f"{org_id!r} must hold the authority role")
        return record

    def _verifier(self, org_id: str) -> OrgRecord:
        record = self.org(org_id)
        if not record.role.is_verifier:
            raise reject(ErrorCode.UNAUTHORIZED, f"{org_id!r} must hold verifier status")
        return record

    def _active_exchange(self) -> ExchangeState:
        if self.exchange is None:
            raise reject(ErrorCode.EXCHANGE_INACTIVE, "exchange has not been initialised")
        return self.exchange

    def _payload_fixed(self, tx: Transaction, key: str) -> Fixed:
        value = tx.payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise reject(ErrorCode.SCHEMA_ERROR,
                         f"{tx.kind.value} payload field {key!r} must be integer micro-units")
        return Fixed(value)

    def _payload_str(self, tx: Transaction, key: str) -> str:
        value = tx.payload.get(key)
        if not isinstance(value, str) or not value:
            raise reject(ErrorCode.SCHEMA_ERROR,
                         f"{tx.kind.value} payload field {key!r} must be a non-empty string")
        return value

    def _event(self, tx: Transaction, **effects) -> AppliedEvent:
        return AppliedEvent(tx=tx, price_before=self.market_price,
                            price_after=self.market_price, **effects)

    # -- handlers -------------------------------------------------------------

    def _apply_set_role(self, tx: Transaction) -> AppliedEvent:
        target = self.org(tx.target)
        new_role = self._payload_str(tx, "role")
        try:
            role = Role.from_string(new_role)
        except ValueError as exc:
            raise reject(ErrorCode.SCHEMA_ERROR, str(exc)) from exc
        self._authority(tx.sender)
        if target.role.as_string() == new_role:
            raise reject(ErrorCode.NO_CHANGE,
                         f"{tx.target!r} already holds role {new_role!r}")
        target.role = role
        return self._event(tx)

    def _apply_mint_permit(self, tx: Transaction) -> AppliedEvent:
        target = self.org(tx.target)
        amount = self._positive_amount(tx)
        self._authority(tx.sender)
        target.permit, self.market_permit = (target.permit + amount,
                                             self.market_permit + amount)
        return self._event(tx)

    def _apply_grant_permit(self, tx: Transaction) -> AppliedEvent:
        target = self.org(tx.target)
        amount = self._positive_amount(tx)
        self._verifier(tx.sender)
        if not target.projects:
            raise reject(ErrorCode.NO_PROJECT,
                         f"{tx.target!r} owns no registered emissions-reduction project")
        target.permit, self.market_permit = (target.permit + amount,
                                             self.market_permit + amount)
        return self._event(tx)

    def _apply_mint_emission(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        self.org(tx.cosigner)
        amount = self._positive_amount(tx)
        self._verifier(tx.cosigner)
        if not sender.role.is_enterprise:
            raise reject(ErrorCode.UNAUTHORIZED, "only enterprises record emissions")
        sender.emission, self.market_emission = (sender.emission + amount,
                                                 self.market_emission + amount)
        return self._event(tx)

    def _apply_transfer_permit(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        target = self.org(tx.target)
        amount = self._positive_amount(tx)
        if amount > sender.permit:
            raise reject(ErrorCode.INSUFFICIENT_BALANCE,
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
            raise reject(ErrorCode.INSUFFICIENT_BALANCE,
                         f"{tx.sender!r} holds {sender.permit} permits, cannot burn {amount}")
        retired = min(amount, sender.emission)
        sender.emission -= retired
        sender.permit -= amount
        self.market_permit -= amount
        self.market_emission -= retired
        return self._event(tx, retired=retired)

    def _trade(self, tx: Transaction, quote: Quote) -> AppliedEvent:
        sender = self.registry[tx.sender]
        exchange = self.exchange
        permit = sender.permit + quote.tokens_delta
        market = self.market_permit + quote.tokens_delta
        cash = sender.cash - quote.cash_delta
        reserve = exchange.reserve + quote.cash_delta
        sender.permit, self.market_permit, sender.cash, exchange.reserve = \
            permit, market, cash, reserve
        return self._event(tx, token_delta=quote.tokens_delta,
                           cash_delta=quote.cash_delta)

    def _apply_trade_token(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        amount = self._signed_amount(tx)
        exchange = self._active_exchange()
        quote = quote_buy_tokens(exchange.fraction, self.market_permit,
                                 exchange.reserve, amount)
        if amount.is_positive:
            if quote.cash_delta > sender.cash:
                raise reject(ErrorCode.INSUFFICIENT_CASH,
                             f"buy needs {quote.cash_delta}, {tx.sender!r} holds {sender.cash}")
        elif -amount > sender.permit:
            raise reject(ErrorCode.INSUFFICIENT_BALANCE,
                         f"{tx.sender!r} holds {sender.permit} permits, cannot sell {-amount}")
        return self._trade(tx, quote)

    def _apply_convert_cash(self, tx: Transaction) -> AppliedEvent:
        sender = self.org(tx.sender)
        amount = self._signed_amount(tx)
        exchange = self._active_exchange()
        if amount.is_positive and amount > sender.cash:
            raise reject(ErrorCode.INSUFFICIENT_CASH,
                         f"spend of {amount} exceeds {tx.sender!r} cash {sender.cash}")
        quote = quote_spend_cash(exchange.fraction, self.market_permit,
                                 exchange.reserve, amount)
        if quote.tokens_delta.is_negative and -quote.tokens_delta > sender.permit:
            raise reject(ErrorCode.INSUFFICIENT_BALANCE,
                         f"cash-out implies selling {-quote.tokens_delta} permits, "
                         f"{tx.sender!r} holds {sender.permit}")
        return self._trade(tx, quote)

    def _rebase_supply(self) -> Quantity:
        # Anchor market adjustments at the live supply; fall back to the old
        # baseline while no tokens circulate yet.
        if self.market_permit > ZERO:
            return self.market_permit
        return self.exchange.baseline_supply

    def _apply_set_reserve_fraction(self, tx: Transaction) -> AppliedEvent:
        self._authority(tx.sender)
        exchange = self._active_exchange()
        fraction = validate_fraction(self._payload_fixed(tx, "fraction"))
        exchange.baseline_supply = self._rebase_supply()
        exchange.baseline_reserve = exchange.reserve
        exchange.fraction = fraction
        return self._event(tx)

    def _apply_adjust_reserve(self, tx: Transaction) -> AppliedEvent:
        self._authority(tx.sender)
        exchange = self._active_exchange()
        if tx.amount is None:
            raise reject(ErrorCode.INVALID_AMOUNT, "reserve delta is required")
        delta = tx.amount
        if delta.is_zero:
            return self._event(tx)  # explicit no-op, state untouched
        reserve = exchange.reserve + delta
        if reserve <= ZERO:
            raise reject(ErrorCode.RESERVE_EXHAUSTED,
                         f"reserve {exchange.reserve} + delta {delta} must stay positive")
        exchange.baseline_supply = self._rebase_supply()
        exchange.reserve = exchange.baseline_reserve = reserve
        return self._event(tx)

    def _apply_set_price(self, tx: Transaction) -> AppliedEvent:
        self._authority(tx.sender)
        price = self._payload_fixed(tx, "price")
        if price <= ZERO:
            raise reject(ErrorCode.INVALID_PRICE, f"market price must be positive, got {price}")
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
        return AppliedEvent(tx=tx, price_before=price_before, price_after=price)


_HANDLERS: dict[TxKind, Callable[[TokenLedger, Transaction], AppliedEvent]] = {
    TxKind.SET_ROLE: TokenLedger._apply_set_role,
    TxKind.MINT_PERMIT: TokenLedger._apply_mint_permit,
    TxKind.GRANT_PERMIT: TokenLedger._apply_grant_permit,
    TxKind.MINT_EMISSION: TokenLedger._apply_mint_emission,
    TxKind.TRANSFER_PERMIT: TokenLedger._apply_transfer_permit,
    TxKind.BURN_TOKEN: TokenLedger._apply_burn_token,
    TxKind.TRADE_TOKEN: TokenLedger._apply_trade_token,
    TxKind.CONVERT_CASH: TokenLedger._apply_convert_cash,
    TxKind.SET_RESERVE_FRACTION: TokenLedger._apply_set_reserve_fraction,
    TxKind.ADJUST_RESERVE: TokenLedger._apply_adjust_reserve,
    TxKind.SET_PRICE: TokenLedger._apply_set_price,
}
