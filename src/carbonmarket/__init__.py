"""carbonmarket: a deterministic emissions-trading ledger with an
algorithmic exchange, a tamper-evident transaction log, and a double-entry
carbon-accounting journal, driven by declarative scenario files.

`import carbonmarket` loads no submodule: each public name below is imported
from its home submodule on first access (PEP 562), so a command that only
checks a chain log never loads PyYAML, the scenario runner or the journal."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chainlog": ("ChainLog", "Transaction", "TxKind", "replay", "verify_text"),
    "errors": ("ErrorCode", "LedgerError"),
    "exchange": ("Quote", "quote_buy_tokens", "quote_spend_cash", "spot_price"),
    "fixed": ("ONE", "ZERO", "Fixed", "Money", "Quantity"),
    "journal": ("Account", "AccountClass", "Journal", "JournalEntry", "JournalLine",
                "Side"),
    "ledger": ("AppliedEvent", "ExchangeState", "OrgRecord", "Role", "TokenLedger"),
    "runner": ("RunResult", "StepResult", "run_scenario"),
    "scenario": ("Scenario", "load_scenario", "parse_scenario"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this hook
    return value


def __dir__():
    return sorted([*globals(), *__all__])
