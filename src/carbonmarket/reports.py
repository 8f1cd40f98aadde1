"""Delimited-text reports over ledger, journal, and exchange state.

All reports are CSV with a header row and "\n" line endings, so repeated
runs of the same scenario are byte-identical.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ErrorCode, LedgerError
from .exchange import spot_price, validate_anchor
from .fixed import Fixed, _half_even

if TYPE_CHECKING:       # `price-curve` loads no ledger; `replay` no journal or scenario
    from .journal import Journal
    from .ledger import TokenLedger
    from .scenario import RunResult


def _csv(rows: Iterable[Sequence[str]], header: list[str]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def balances_csv(ledger: TokenLedger) -> str:
    rows = [[rec.id, rec.role.value, str(rec.permit), str(rec.emission),
             str(rec.cash), ";".join(sorted(rec.projects))]
            for rec in ledger.registry.values()]
    return _csv(rows, ["org", "role", "permit", "emission", "cash", "projects"])


def compliance_csv(ledger: TokenLedger) -> str:
    rows = [[rec.id, str(rec.emission), "true" if rec.compliant else "false"]
            for rec in ledger.registry.values()]
    return _csv(rows, ["org", "outstanding_emissions", "compliant"])


def market_csv(ledger: TokenLedger) -> str:
    rows = [["permit", str(ledger.market_permit)],
            ["emission", str(ledger.market_emission)],
            ["price", str(ledger.market_price)]]
    if ledger.exchange is not None:
        ex = ledger.exchange
        rows += [["reserve", str(ex.reserve)],
                 ["fraction", str(ex.fraction)],
                 ["baseline_supply", str(ex.baseline_supply)],
                 ["baseline_reserve", str(ex.baseline_reserve)]]
    return _csv(rows, ["quantity", "value"])


def trial_balance_csv(journal: Journal) -> str:
    from .journal import Account
    nets = journal.trial_balance()
    rows = [[account.value, account.account_class.value, str(nets[account])]
            for account in Account]
    return _csv(rows, ["account", "class", "net_dr_minus_cr"])


def run_report_csv(result: RunResult) -> str:
    # one row at a time: a run of many steps holds no list of all the rows
    rows = ((str(s.index), s.time, s.action, s.status,
             "" if s.seq is None else str(s.seq), s.error or "", s.detail)
            for s in result.steps)
    return _csv(rows, ["step", "time", "action", "status", "seq", "error", "detail"])


# The most rows a price-curve table holds; more would only cost memory and
# time, and a plot needs far fewer.
MAX_CURVE_POINTS = 10_000


def price_curve_rows(fraction: Fixed, supply0: Fixed, reserve0: Fixed,
                     supply_min: Fixed, supply_max: Fixed,
                     points: int) -> list[tuple[Fixed, Fixed]]:
    """Evenly spaced (supply, spot price) table for external plotting, of 2
    to `MAX_CURVE_POINTS` points.  Each supply is exact: the first and last
    are `supply_min` and `supply_max`, and one between them rounds to the
    nearest micro-unit, ties to even."""
    if points < 2:
        raise LedgerError(ErrorCode.INVALID_RANGE, "need at least 2 points")
    if points > MAX_CURVE_POINTS:
        raise LedgerError(ErrorCode.INVALID_RANGE, f"need at most {MAX_CURVE_POINTS} points")
    if not Fixed(0) < supply_min < supply_max:
        raise LedgerError(ErrorCode.INVALID_RANGE,
                          "need 0 < min supply < max supply")
    validate_anchor(fraction, supply0, reserve0)
    lo = supply_min.micro
    span = supply_max.micro - lo
    rows = []
    for i in range(points):
        supply = Fixed(lo + _half_even(span * i, points - 1))
        rows.append((supply, spot_price(fraction, supply0, reserve0, supply)))
    return rows


def price_curve_csv(fraction: Fixed, supply0: Fixed, reserve0: Fixed,
                    supply_min: Fixed, supply_max: Fixed, points: int) -> str:
    rows = [[str(s), str(p)] for s, p in
            price_curve_rows(fraction, supply0, reserve0, supply_min, supply_max, points)]
    return _csv(rows, ["supply", "price"])
