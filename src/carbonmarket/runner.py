"""Scenario execution: the parsed steps, applied to the genesis ledger.

The parsed scenario holds the genesis ledger and each step's transaction.
The runner is the single writer: it gives each transaction the next seq and
commits it to a copy of the genesis ledger, the chain log and the journal
with `chainlog.advance`, the step `replay` repeats.  Inline expectations
are evaluated against the live state.  The run stops at the first failure
(unexpected rejection, failed expectation, a step that was marked
expect_fail but succeeded, or an applied transaction the journal cannot
book); everything before the failure remains valid.  A transaction the
ledger applied is always logged and booked, even when its step fails, so
the chain log replays to the run's final state.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .chainlog import ChainLog, advance
from .errors import ErrorCode, LedgerError
from .journal import Journal
from .ledger import TokenLedger
from .scenario import Scenario, Step


class StepResult(NamedTuple):
    index: int
    time: str
    action: str
    status: str                      # applied | rejected | assert-ok | failed
    seq: Optional[int] = None
    error: Optional[str] = None      # error code name for rejections/failures
    detail: str = ""


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

    def record(step: Step, status: str, **fields) -> StepResult:
        entry = StepResult(index=step.index, time=step.time, action=step.action,
                           status=status, **fields)
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
            advance(ledger, step.tx._replace(seq=seq), chainlog, journal)
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
