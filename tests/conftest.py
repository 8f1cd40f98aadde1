import importlib.util
import json
import sys
from pathlib import Path

import pytest

from carbonmarket import (Fixed, Role, TokenLedger, Transaction, TxKind, load_scenario,
                          run_scenario)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_SCENARIO = SCENARIO_DIR / "app-rec-2020.yaml"

# The ledger accepts 1e12 tokens, but booking them at price 20 overflows the
# journal's 64-bit amount range; the third step never runs.
JOURNAL_OVERFLOW = """
name: journal-overflow
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
  exchange: {fraction: 1, supply: 1000, reserve: 20000}
steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 10}
  - {time: "t2", action: mintPermit, signer: A, target: E, amount: 1000000000000}
  - {time: "t3", action: mintPermit, signer: A, target: E, amount: 5}
"""


def fx(value) -> Fixed:
    return Fixed.parse(value)


class LedgerDriver:
    """Thin test harness: builds transactions with the next sequence number
    and applies them, collecting the events."""

    def __init__(self, ledger: TokenLedger):
        self.ledger = ledger
        self.events = []

    def apply(self, kind: TxKind, sender="", target="", cosigner="",
              amount=None, time="t0", **payload) -> "AppliedEvent":
        tx = Transaction(seq=self.ledger.seq + 1, time=time, kind=kind,
                         sender=sender, target=target, cosigner=cosigner,
                         amount=None if amount is None else fx(amount),
                         payload=payload)
        event = self.ledger.apply(tx)
        self.events.append(event)
        return event

    # convenience wrappers for the common operations
    def set_role(self, sender, target, role):
        return self.apply(TxKind.SET_ROLE, sender=sender, target=target, role=role)

    def mint_permit(self, signer, target, amount):
        return self.apply(TxKind.MINT_PERMIT, sender=signer, target=target, amount=amount)

    def grant_permit(self, signer, target, amount):
        return self.apply(TxKind.GRANT_PERMIT, sender=signer, target=target, amount=amount)

    def mint_emission(self, sender, signer, amount):
        return self.apply(TxKind.MINT_EMISSION, sender=sender, cosigner=signer, amount=amount)

    def transfer_permit(self, sender, target, amount):
        return self.apply(TxKind.TRANSFER_PERMIT, sender=sender, target=target, amount=amount)

    def burn_token(self, sender, amount):
        return self.apply(TxKind.BURN_TOKEN, sender=sender, amount=amount)

    def trade_token(self, sender, amount):
        return self.apply(TxKind.TRADE_TOKEN, sender=sender, amount=amount)

    def convert_cash(self, sender, amount):
        return self.apply(TxKind.CONVERT_CASH, sender=sender, amount=amount)

    def init_exchange(self, fraction, supply, reserve):
        """Genesis bootstrap: the exchange is state, never a transaction."""
        return self.ledger.setup_init_exchange(fx(fraction), fx(supply), fx(reserve))

    def set_reserve_fraction(self, authority, fraction):
        return self.apply(TxKind.SET_RESERVE_FRACTION, sender=authority,
                          fraction=fx(fraction).micro)

    def adjust_reserve(self, authority, delta):
        return self.apply(TxKind.ADJUST_RESERVE, sender=authority, amount=delta)

    def set_price(self, authority, price):
        return self.apply(TxKind.SET_PRICE, sender=authority, price=fx(price).micro)


def standard_market(cash="100000") -> TokenLedger:
    """A, V, E, F registered; E owns project p1; enterprises hold cash."""
    ledger = TokenLedger()
    ledger.setup_register_org("A", Role.AUTHORITY)
    ledger.setup_register_org("V", Role.VERIFIER)
    ledger.setup_register_org("E", Role.ENTERPRISE)
    ledger.setup_register_org("F", Role.ENTERPRISE)
    ledger.setup_register_project("E", "p1")
    ledger.setup_set_cash("E", fx(cash))
    ledger.setup_set_cash("F", fx(cash))
    return ledger


def endowed_genesis(ledger: TokenLedger, price: int, **balances) -> TokenLedger:
    """`ledger` reloaded through its state JSON with genesis balances: each
    keyword maps an org id to its (permit, emission) in micro-units, the
    market totals follow, and the market price is `price` micro-units."""
    state = json.loads(ledger.state_json())
    for org in state["orgs"]:
        org["permit"], org["emission"] = balances.get(org["id"],
                                                      (org["permit"], org["emission"]))
    state["market"] = {"permit": sum(org["permit"] for org in state["orgs"]),
                       "emission": sum(org["emission"] for org in state["orgs"]),
                       "price": price}
    return TokenLedger.from_state_json(json.dumps(state))


@pytest.fixture
def market() -> TokenLedger:
    return standard_market()


@pytest.fixture
def driver(market) -> LedgerDriver:
    return LedgerDriver(market)


@pytest.fixture(scope="session")
def golden_run():
    return run_scenario(load_scenario(str(GOLDEN_SCENARIO)))


def load_gen():
    """`perfbench/gen.py`, the benchmark's workload generator, as a module."""
    module = sys.modules.get("perfbench_gen")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_gen", SCENARIO_DIR.parent / "perfbench" / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses look their module up
        spec.loader.exec_module(module)
    return module
