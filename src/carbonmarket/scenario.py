"""Declarative scenario files: schema, validation, and the run.

A scenario is a YAML document with a genesis block (organisations, projects,
cash endowments, optional exchange bootstrap) and an ordered list of steps.
Each step carries a logical timestamp (text, compared as strings, so ISO
dates order correctly) and either one ledger action or an inline `expect`
assertion.  Scenario YAML is read as written: a scalar is its text, except
the plain spellings of null and the booleans, so an amount, quoted or not,
is read by `Fixed.parse` alone.

Parsing builds what a run executes.  The genesis block becomes the
genesis `TokenLedger` through the ledger's `setup_*` calls, the same calls
that load a state from JSON; this module checks only the block's shape, and
an organisation or project those calls refuse is a SchemaError at its path
(`genesis.projects[0]: ...`).  Each action step becomes its `Transaction`,
built once here at seq 0.

`run_scenario` is the single writer: it gives each transaction the next seq
and commits it to a copy of the genesis ledger, the chain log and the
journal with `chainlog.advance`, the step `replay` repeats.  Inline
expectations are evaluated against the live state.  The run stops at the
first failure (unexpected rejection, failed expectation, a step that was
marked expect_fail but succeeded, or an applied transaction the journal
cannot book); everything before the failure remains valid.  A transaction
the ledger applied is always logged and booked, even when its step fails,
so the chain log replays to the run's final state.

Any transaction step may carry `expect_fail: <ErrorCode>` (or `true`) to
assert that the ledger rejects it; such steps leave no trace in the chain
log or journal.
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple, Optional, Union

import yaml
from yaml.events import (DocumentEndEvent, MappingEndEvent, MappingStartEvent,
                         ScalarEvent, SequenceEndEvent, SequenceStartEvent,
                         StreamEndEvent)

from .chainlog import _KINDS, ChainLog, Transaction, _transaction, advance
from .errors import ErrorCode, LedgerError
from .fixed import Fixed
from .journal import Account, Journal
from .ledger import TokenLedger, parse_role

# Nesting past this many collections is a syntax error.  Scenarios nest about
# four deep; a value nested tens of thousands deep would reach `repr` (in the
# unknown-action message) and `str` (in `Fixed.parse`), which recurse once per
# level and raise RecursionError.
_MAX_DEPTH = 100

# The plain scalars that are not their text.  Every other plain scalar,
# numbers included, is a string, so `Fixed.parse` is the one number grammar.
_PLAIN = {"": None, "~": None, "null": None, "Null": None, "NULL": None,
          "true": True, "True": True, "TRUE": True,
          "false": False, "False": False, "FALSE": False}


class _NotInSubset(yaml.MarkedYAMLError):
    """YAML outside the scenario subset, refused at its mark."""

    def __init__(self, problem: str, mark):
        super().__init__(problem=problem, problem_mark=mark)


class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader over libyaml's parser when PyYAML was built with it,
    building the document straight from the parser's events.

    Scenario YAML is a subset: mappings, sequences and scalars in one
    document.  A quoted scalar is its text, and a plain scalar is its text
    unless `_PLAIN` names it.  An anchor, an alias, a tag other than `!`, a
    collection used as a key, a second document and nesting past
    `_MAX_DEPTH` are refused at their mark; the parser's own errors come
    from `get_event` unchanged.
    """

    def get_single_data(self):
        get_event = self.get_event
        plain = dict(_PLAIN)            # one object per distinct plain text
        frames: list = []               # (items, is_mapping) of each open collection
        get_event()                     # stream start
        if get_event().__class__ is StreamEndEvent:
            return None                 # no document
        items, is_map = [], False       # the root node goes in here
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                if event.anchor is not None or event.tag not in (None, "!"):
                    raise _node_refusal(event)
                value = event.value
                if event.implicit[0]:
                    value = plain.setdefault(value, value)
                items.append(value)
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                frames.append((items, is_map))
                if len(frames) > _MAX_DEPTH:
                    raise _NotInSubset(f"nesting deeper than {_MAX_DEPTH} levels",
                                       event.start_mark)
                if event.anchor is not None or event.tag not in (None, "!"):
                    raise _node_refusal(event)
                if is_map and not len(items) & 1:
                    raise _NotInSubset("a collection key is not scenario YAML",
                                       event.start_mark)
                items, is_map = [], kind is MappingStartEvent
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                if is_map:
                    pairs = iter(items)
                    node = dict(zip(pairs, pairs))
                else:
                    node = items
                items, is_map = frames.pop()
                items.append(node)
            elif kind is DocumentEndEvent:
                break
            else:
                raise _NotInSubset("an alias is not scenario YAML", event.start_mark)
        event = get_event()
        if event.__class__ is not StreamEndEvent:
            raise _NotInSubset("a second document is not scenario YAML", event.start_mark)
        return items[0]


def _node_refusal(event) -> _NotInSubset:
    """The refusal of a node's anchor, or else of its tag."""
    if event.anchor is not None:
        return _NotInSubset("an anchor is not scenario YAML", event.start_mark)
    return _NotInSubset(f"the tag {event.tag!r} is not scenario YAML", event.start_mark)


class Action(NamedTuple):
    """How one ledger action's step fields become its transaction."""

    orgs: dict[str, str]    # org-reference step field -> transaction field it fills
    value: str              # the one value step field
    in_payload: bool        # the value goes in the payload, not as the amount


# The ledger actions, in the order error messages list them; each name is
# also the value of the `TxKind` of the transaction its steps become.
ACTIONS = {
    "setRole": Action({"sender": "sender", "target": "target"}, "role", True),
    "mintPermit": Action({"signer": "sender", "target": "target"}, "amount", False),
    "grantPermit": Action({"signer": "sender", "target": "target"}, "amount", False),
    "mintEmission": Action({"sender": "sender", "signer": "cosigner"}, "amount", False),
    "transferPermit": Action({"sender": "sender", "target": "target"}, "amount", False),
    "burnToken": Action({"sender": "sender"}, "amount", False),
    "tradeToken": Action({"sender": "sender"}, "amount", False),
    "convertCash": Action({"sender": "sender"}, "amount", False),
    "setReserveFraction": Action({"authority": "sender"}, "fraction", True),
    "adjustReserve": Action({"authority": "sender"}, "delta", False),
    "setPrice": Action({"authority": "sender"}, "price", True),
}

# the fields each step may carry, by action; an expect step's `expect_fail`
# is refused with a message of its own
_STEP_FIELDS = {
    name: {"time", "action", "expect_fail", *spec.orgs, spec.value}
    for name, spec in ACTIONS.items()}
_STEP_FIELDS["expect"] = {"time", "action", "expect_fail", "equals", "org", "field",
                          "account", "market", "price"}

# what an `expect` step may read, by the name the step gives it -> the
# attribute it reads, of the org record or, for a market, of the ledger
EXPECT_FIELDS = {"permit": "permit", "emission": "emission", "cash": "cash",
                 "compliant": "compliant", "outstanding": "emission"}
EXPECT_MARKETS = {"permit": "market_permit", "emission": "market_emission"}

_ERROR_CODES = frozenset(code.value for code in ErrorCode)
# the payload every transaction without one shares, as `Transaction` builds it
_NO_PAYLOAD = Transaction._field_defaults["payload"]


class Expectation(NamedTuple):
    """Inline assertion: the reading `attr` names equals `equals`.  `attr`
    is a journal account, read as its net Dr - Cr, or else an attribute of
    the org record `org` or, with no org, of the ledger."""

    label: str                          # how the run report names the reading
    org: Optional[str]
    attr: Union[str, Account]
    equals: Any

    def read(self, ledger: TokenLedger, journal: Journal) -> Any:
        if isinstance(self.attr, Account):
            return journal.trial_balance()[self.attr]
        return getattr(ledger.org(self.org) if self.org else ledger, self.attr)


class Step(NamedTuple):
    index: int
    time: str
    action: str
    tx: Optional[Transaction] = None    # at seq 0; the run gives it the next seq
    expect: Optional[Expectation] = None
    expect_fail: Optional[str] = None   # error code name, or "" for any


_step = partial(tuple.__new__, Step)


class Scenario(NamedTuple):
    name: str
    description: str
    genesis: TokenLedger                # the state before the first step
    steps: tuple[Step, ...]


def _schema_error(where: str, message: str) -> LedgerError:
    return LedgerError(ErrorCode.SCHEMA_ERROR, f"{where}: {message}")


def _fields(where: str, raw: Any, allowed) -> None:
    """Refuse `raw` unless it is a mapping holding no field outside `allowed`."""
    if not isinstance(raw, dict):
        raise _schema_error(where, "must be a mapping")
    unknown = set(raw).difference(allowed)
    if unknown:
        # by repr: plain YAML keys may be null or booleans as well as text
        raise _schema_error(where, f"unknown fields {sorted(unknown, key=repr)}")


def _optional(raw: dict, key: str, default: Any) -> Any:
    """`raw[key]`, or `default` when the field is absent or null; the caller
    checks that any other value has the field's type."""
    value = raw.get(key)
    return default if value is None else value


def _as_amount(where: str, key: str, value: Any) -> Fixed:
    try:
        return Fixed.parse(value)
    except (ValueError, OverflowError) as exc:
        raise _schema_error(where, f"field {key!r}: {exc}") from exc


def _as_str(where: str, key: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise _schema_error(where, f"field {key!r} must be a non-empty string")
    return value


def _setup(where: str, call, *args):
    """`call(*args)`, a ledger setup call or `parse_role`; its refusal is a
    SchemaError at `where`."""
    try:
        return call(*args)
    except LedgerError as exc:
        raise _schema_error(where, exc.message) from exc


def _parse_genesis(raw: Any) -> TokenLedger:
    """The genesis ledger, built by the setup calls that also load a state
    (`TokenLedger.from_state_json`), so both pass the same checks: they
    refuse a bad org id, role or project id.  An exchange anchor they refuse
    keeps its error code."""
    _fields("genesis", raw, ("orgs", "projects", "exchange"))
    orgs_raw = raw.get("orgs")
    if not isinstance(orgs_raw, list) or not orgs_raw:
        raise _schema_error("genesis", "orgs must be a non-empty list")
    projects_raw = _optional(raw, "projects", [])
    if not isinstance(projects_raw, list):
        raise _schema_error("genesis", "projects must be a list")

    ledger = TokenLedger()
    for i, entry in enumerate(orgs_raw):
        where = f"genesis.orgs[{i}]"
        _fields(where, entry, ("id", "role", "cash"))
        org_id = entry.get("id")
        _setup(where, ledger.setup_register_org, org_id, entry.get("role"))
        cash = _as_amount(where, "cash", _optional(entry, "cash", 0))
        _setup(where, ledger.setup_set_cash, org_id, cash)

    for i, entry in enumerate(projects_raw):
        where = f"genesis.projects[{i}]"
        _fields(where, entry, ("owner", "project"))
        owner = _as_str(where, "owner", entry.get("owner"))
        if owner not in ledger.registry:
            raise LedgerError(ErrorCode.REFERENCE_ERROR,
                              f"{where}: owner {owner!r} is not declared in genesis.orgs")
        _setup(where, ledger.setup_register_project, owner, entry.get("project"))

    entry = raw.get("exchange")
    if entry is not None:
        where = "genesis.exchange"
        _fields(where, entry, ("fraction", "supply", "reserve"))
        ledger.setup_init_exchange(_as_amount(where, "fraction", entry.get("fraction")),
                                   _as_amount(where, "supply", entry.get("supply")),
                                   _as_amount(where, "reserve", entry.get("reserve")))
    return ledger


def _parse_expect(where: str, step: dict, declared: dict) -> Expectation:
    if "equals" not in step:
        raise _schema_error(where, "expect needs an `equals` value")
    equals = step["equals"]
    subjects = [k for k in ("org", "account", "market", "price") if k in step]
    if len(subjects) != 1:
        raise _schema_error(where, "expect needs exactly one subject: "
                                   "org+field, account, market, or price")
    subject = subjects[0]
    if subject != "org" and "field" in step:
        raise _schema_error(where, "only an org expectation takes a `field`")

    org = None
    if subject == "org":
        org = _as_str(where, "org", step["org"])
        if org not in declared:
            raise LedgerError(ErrorCode.REFERENCE_ERROR,
                              f"{where}: org {org!r} is not declared in genesis")
        name = _as_str(where, "field", step.get("field"))
        if name not in EXPECT_FIELDS:
            raise _schema_error(where, f"field must be one of {tuple(EXPECT_FIELDS)}")
        label, attr = f"{org}.{name} =", EXPECT_FIELDS[name]
    elif subject == "account":
        name = _as_str(where, "account", step["account"])
        try:
            attr = Account(name)
        except ValueError:
            raise _schema_error(where, f"unknown journal account {name!r}") from None
        label = f"account {name!r} nets"
    elif subject == "market":
        name = _as_str(where, "market", step["market"])
        if name not in EXPECT_MARKETS:
            raise _schema_error(where, f"market must be one of {tuple(EXPECT_MARKETS)}")
        label, attr = f"market {name} =", EXPECT_MARKETS[name]
    elif step.get("price") is not True:
        raise _schema_error(where, "price expectation is written `price: true`")
    else:
        label, attr = "market price =", "market_price"
    if attr != "compliant":
        equals = _as_amount(where, "equals", equals)
    elif not isinstance(equals, bool):
        raise _schema_error(where, "compliant expects true/false")
    return Expectation(label, org, attr, equals)


def _parse_step(index: int, raw: Any, declared: dict) -> Step:
    where = f"steps[{index}]"
    action = raw.get("action") if isinstance(raw, dict) else None
    # an unhashable YAML value (a list or a mapping) is no action either
    fields = _STEP_FIELDS.get(action) if isinstance(action, str) else None
    if fields is None and isinstance(raw, dict):
        raise _schema_error(where, f"unknown action {action!r}; "
                                   f"expected one of {(*ACTIONS, 'expect')}")
    _fields(where, raw, fields)
    time = _as_str(where, "time", raw.get("time"))
    if action == "expect":
        if raw.get("expect_fail") is not None:
            raise _schema_error(where, "expect steps cannot carry expect_fail")
        return _step((index, time, action, None,
                      _parse_expect(where, raw, declared), None))

    spec = ACTIONS[action]
    parties = {"sender": "", "target": "", "cosigner": ""}
    for key, tx_field in spec.orgs.items():
        org = _as_str(where, key, raw.get(key))
        if org not in declared:
            raise LedgerError(ErrorCode.REFERENCE_ERROR,
                              f"{where}: {key} {org!r} is not declared in genesis")
        parties[tx_field] = org
    if spec.value == "role":
        value = _setup(where, parse_role, raw.get("role")).value
    else:
        value = _as_amount(where, spec.value, raw.get(spec.value))
    if spec.in_payload:
        amount = None
        payload = {spec.value: value.micro if isinstance(value, Fixed) else value}
    else:
        amount, payload = value, _NO_PAYLOAD
    tx = _transaction((0, time, _KINDS[action], parties["sender"], parties["target"],
                       parties["cosigner"], amount, payload))

    expect_fail: Optional[str] = None
    value = raw.get("expect_fail")
    if value is True:
        expect_fail = ""
    elif isinstance(value, str) and value in _ERROR_CODES:
        expect_fail = value
    elif value is not None:
        raise _schema_error(where, "expect_fail must be true or a known error code")

    return _step((index, time, action, tx, None, expect_fail))


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise LedgerError(ErrorCode.SYNTAX_ERROR, f"bad scenario file{at}: {exc}") from exc
    _fields("document", raw, ("name", "description", "genesis", "steps"))
    name = _as_str("document", "name", raw.get("name"))
    description = _optional(raw, "description", "")
    if not isinstance(description, str):
        raise _schema_error("document", "description must be a string")

    genesis = _parse_genesis(raw.get("genesis"))
    declared = genesis.registry

    steps_raw = _optional(raw, "steps", [])
    if not isinstance(steps_raw, list):
        raise _schema_error("steps", "must be a list")
    steps = [_parse_step(i, entry, declared) for i, entry in enumerate(steps_raw)]

    last_time: Optional[str] = None
    for step in steps:
        if last_time is not None and step.time < last_time:
            raise _schema_error(f"steps[{step.index}]",
                                f"timestamp {step.time!r} precedes {last_time!r}")
        last_time = step.time

    return Scenario(name=name, description=description, genesis=genesis,
                    steps=tuple(steps))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LedgerError(ErrorCode.SYNTAX_ERROR, f"cannot read scenario {path!r}: {exc}") from exc
    return parse_scenario(text)


class StepResult(NamedTuple):
    index: int
    time: str
    action: str
    status: str                      # applied | rejected | assert-ok | failed
    seq: Optional[int] = None
    error: Optional[str] = None      # error code name for rejections/failures
    detail: str = ""


_step_result = partial(tuple.__new__, StepResult)


class RunResult:
    __slots__ = ("genesis", "final", "chainlog", "journal", "steps", "failure")

    def __init__(self, genesis: TokenLedger, final: TokenLedger, chainlog: ChainLog,
                 journal: Journal):
        self.genesis = genesis
        self.final = final
        self.chainlog = chainlog
        self.journal = journal
        self.steps: list[StepResult] = []
        self.failure: Optional[StepResult] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_scenario(scenario: Scenario) -> RunResult:
    genesis = scenario.genesis
    chainlog = ChainLog(genesis.state_json())
    ledger = genesis.copy()     # copied once genesis is encoded: a warm cache
    journal = Journal(genesis)
    result = RunResult(genesis=genesis, final=ledger, chainlog=chainlog, journal=journal)

    def record(step: Step, status: str, seq: Optional[int] = None,
               error: Optional[str] = None, detail: str = "") -> StepResult:
        entry = _step_result((step.index, step.time, step.action, status, seq, error, detail))
        result.steps.append(entry)
        return entry

    def fail(step: Step, code: ErrorCode, detail: str, seq: Optional[int] = None):
        result.failure = record(step, "failed", seq=seq, error=code.value, detail=detail)

    for step in scenario.steps:
        if step.action == "expect":
            exp = step.expect
            actual = exp.read(ledger, journal)
            detail = f"{exp.label} {actual}"
            if actual != exp.equals:
                fail(step, ErrorCode.ASSERTION_FAILED, f"expected {exp.equals}, got {detail}")
                break
            record(step, "assert-ok", detail=detail)
            continue

        seq = ledger.seq + 1
        try:
            advance(ledger, _transaction((seq, *step.tx[1:])), chainlog, journal)
        except LedgerError as exc:
            if ledger.seq == seq:       # applied and logged, but not booked
                fail(step, exc.code, exc.message, seq=seq)
            elif step.expect_fail in ("", exc.code.value):
                record(step, "rejected", seq=seq, error=exc.code.value, detail=exc.message)
                continue
            else:
                fail(step, ErrorCode.TRANSACTION_REJECTED,
                     f"seq {seq} ({step.action}) rejected: {exc}", seq=seq)
            break
        if step.expect_fail is not None:
            fail(step, ErrorCode.ASSERTION_FAILED,
                 f"step was expected to fail with "
                 f"{step.expect_fail or 'any error'} but was applied", seq=seq)
            break
        record(step, "applied", seq=seq)
    return result
