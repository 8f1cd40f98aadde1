"""carbonmarket: a deterministic emissions-trading ledger with an
algorithmic exchange, a tamper-evident transaction log, and a double-entry
carbon-accounting journal, driven by declarative scenario files."""

from .chainlog import ChainLog, replay, verify_text
from .domain import (AUTHORITY, ENTERPRISE, VERIFIER, ComplianceReport,
                     OrgRecord, Role, RoleKind)
from .errors import ErrorCode, LedgerError
from .exchange import (ExchangeState, Quote, quote_buy_tokens,
                       quote_spend_cash, spot_price)
from .fixed import ONE, ZERO, Fixed, Money, Quantity
from .journal import Account, AccountClass, Journal, JournalEntry, JournalLine, Side
from .ledger import AppliedEvent, TokenLedger, Transaction, TxKind
from .runner import RunResult, StepResult, build_genesis, run_scenario
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AUTHORITY", "Account", "AccountClass", "AppliedEvent", "ChainLog",
    "ComplianceReport", "ENTERPRISE", "ErrorCode", "ExchangeState", "Fixed",
    "Journal", "JournalEntry", "JournalLine", "LedgerError", "Money", "ONE",
    "OrgRecord", "Quantity", "Quote", "Role", "RoleKind", "RunResult",
    "Scenario", "Side", "StepResult", "TokenLedger",
    "Transaction", "TxKind", "VERIFIER", "ZERO", "build_genesis",
    "load_scenario", "parse_scenario", "quote_buy_tokens", "quote_spend_cash",
    "replay", "run_scenario", "spot_price", "verify_text",
]
