"""Scenario execution: genesis construction and step-by-step replay.

The runner is the single writer: it turns each scenario step into a
transaction, applies it to the ledger, appends the applied transaction to
the chain log, and feeds the event to the journal.  Inline expectations are
evaluated against the live state.  The run stops at the first failure
(unexpected rejection, failed expectation, a step that was marked
expect_fail but succeeded, or an applied transaction the journal cannot
book); everything before the failure remains valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chainlog import ChainLog
from .domain import Role
from .errors import ErrorCode, LedgerError
from .fixed import Fixed
from .journal import Account, Journal
from .ledger import TokenLedger, Transaction, TxKind
from .scenario import ACTIONS, Expectation, Scenario, Step


@dataclass(frozen=True)
class StepResult:
    index: int
    time: str
    action: str
    status: str                      # applied | rejected | assert-ok | failed
    seq: Optional[int] = None
    error: Optional[str] = None      # error code name for rejections/failures
    detail: str = ""


@dataclass
class RunResult:
    scenario: Scenario
    genesis: TokenLedger
    final: TokenLedger
    chainlog: ChainLog
    journal: Journal
    steps: list[StepResult] = field(default_factory=list)
    ok: bool = True
    failure: Optional[StepResult] = None


def build_genesis(scenario: Scenario) -> TokenLedger:
    """Materialise the genesis state; nothing here enters the chain log."""
    ledger = TokenLedger()
    for org in scenario.genesis.orgs:
        ledger.setup_register_org(org.id, Role.from_string(org.role))
        if not org.cash.is_zero:
            ledger.setup_set_cash(org.id, org.cash)
    for project in scenario.genesis.projects:
        ledger.setup_register_project(project.owner, project.project)
    if scenario.genesis.exchange is not None:
        init = scenario.genesis.exchange
        ledger.setup_init_exchange(init.fraction, init.supply, init.reserve)
    return ledger


def _build_tx(step: Step, seq: int) -> Transaction:
    spec = ACTIONS[step.action]
    orgs = {tx_field: step.fields[key] for key, tx_field in spec.orgs.items()}
    value = step.fields[spec.value]
    if spec.in_payload:
        amount = None
        payload = {spec.value: value.micro if isinstance(value, Fixed) else value}
    else:
        amount, payload = value, {}
    return Transaction(seq=seq, time=step.time, kind=TxKind(step.action),
                       amount=amount, payload=payload, **orgs)


def _check_expectation(exp: Expectation, ledger: TokenLedger,
                       journal: Journal) -> tuple[bool, str]:
    if exp.org is not None:
        record = ledger.org(exp.org)
        if exp.org_field == "compliant":
            actual = ledger.compliance_check(exp.org).compliant
            return actual == exp.equals, f"{exp.org}.compliant = {actual}"
        if exp.org_field == "outstanding":
            actual = ledger.compliance_check(exp.org).outstanding_emissions
        else:
            actual = getattr(record, exp.org_field)
        return actual == exp.equals, f"{exp.org}.{exp.org_field} = {actual}"
    if exp.account is not None:
        nets = journal.trial_balance()
        match = next((a for a in Account if a.value == exp.account), None)
        if match is None:
            return False, f"unknown account {exp.account!r}"
        actual = nets[match]
        return actual == exp.equals, f"account {exp.account!r} nets {actual}"
    if exp.market is not None:
        actual = ledger.market_permit if exp.market == "permit" else ledger.market_emission
        return actual == exp.equals, f"market {exp.market} = {actual}"
    actual = ledger.market_price
    return actual == exp.equals, f"market price = {actual}"


def run_scenario(scenario: Scenario) -> RunResult:
    genesis = build_genesis(scenario)
    chainlog = ChainLog.for_ledger(genesis)
    ledger = genesis.copy()     # copied once genesis is encoded: a warm cache
    journal = Journal()
    result = RunResult(scenario=scenario, genesis=genesis, final=ledger,
                       chainlog=chainlog, journal=journal)

    def fail(step: Step, code: ErrorCode, detail: str, seq: Optional[int] = None):
        record = StepResult(index=step.index, time=step.time, action=step.action,
                            status="failed", seq=seq, error=code.value, detail=detail)
        result.steps.append(record)
        result.ok = False
        result.failure = record

    for step in scenario.steps:
        if step.action == "expect":
            ok, detail = _check_expectation(step.expect, ledger, journal)
            if ok:
                result.steps.append(StepResult(index=step.index, time=step.time,
                                               action="expect", status="assert-ok",
                                               detail=detail))
            else:
                fail(step, ErrorCode.ASSERTION_FAILED,
                     f"expected {step.expect.equals}, got {detail}")
                break
            continue

        seq = ledger.seq + 1
        tx = _build_tx(step, seq)
        try:
            event = ledger.apply(tx)
        except LedgerError as exc:
            if step.expect_fail is not None and step.expect_fail in ("", exc.code.value):
                result.steps.append(StepResult(index=step.index, time=step.time,
                                               action=step.action, status="rejected",
                                               seq=seq, error=exc.code.value,
                                               detail=exc.message))
                continue
            fail(step, ErrorCode.TRANSACTION_REJECTED,
                 f"seq {seq} ({step.action}) rejected: {exc}", seq=seq)
            break
        if step.expect_fail is not None:
            fail(step, ErrorCode.ASSERTION_FAILED,
                 f"step was expected to fail with "
                 f"{step.expect_fail or 'any error'} but was applied", seq=seq)
            break
        chainlog.append(tx, ledger.state_digest())
        try:
            journal.on_event(event)
        except LedgerError as exc:
            fail(step, exc.code, exc.message, seq=seq)
            break
        result.steps.append(StepResult(index=step.index, time=step.time,
                                       action=step.action, status="applied", seq=seq))

    result.final = ledger
    return result
