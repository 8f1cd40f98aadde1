"""Span recording and the per-layer metrics derived from spans.

A span is ``[name, start_ns, end_ns, parent, run_id]``; ``parent`` is the
index of the enclosing span in the same run, or -1.  Spans are kept in
memory and written out once, when a traced run ends.  This module does not
import carbonmarket, so run.py can derive metrics without
loading the program under test.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

# transaction kinds the generated workloads apply; each gets an apply-time metric
TX_KINDS = ("mintPermit", "grantPermit", "transferPermit", "tradeToken",
            "mintEmission", "burnToken", "setPrice")

# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "cli.import_s": "s",
    "scenario.yaml_s": "s",
    "scenario.validate_s": "s",
    "runner.genesis_s": "s",
    "runner.step_us.p50": "us",
    "runner.step_us.p99": "us",
    "runner.steps": "count",
    "ledger.apply_s": "s",
    **{f"ledger.apply_us.{kind}": "us" for kind in TX_KINDS},
    "ledger.rejected": "count",
    "ledger.reject_us.p50": "us",
    "ledger.digest_s": "s",
    "ledger.digest_us.p50": "us",
    "chainlog.append_s": "s",
    "journal.on_event_s": "s",
    "journal.reprice_us.p50": "us",
    "journal.reprice_us.p99": "us",
    "journal.lots_live": "count",
    "journal.entries": "count",
    "journal.export_s": "s",
    "journal.trial_balance_s": "s",
    "reports.write_s": "s",
    "chainlog.to_text_s": "s",
    "chainlog.from_text_s": "s",
    "chainlog.verify_text_s": "s",
    "chainlog.replay_s": "s",
    "chainlog.replay_reverify_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.run_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, rename: str = ""):
        """Close the innermost open span, optionally renaming it (e.g. an
        apply that turned out to be a rejection)."""
        span = self.spans[index]
        span[2] = perf_counter_ns()
        if rename:
            span[0] = rename
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts}, handle)


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _durations_ns(spans: list, name: str, parent: str = "") -> list[int]:
    """Durations of the spans called `name`; with `parent`, only those whose
    enclosing span is called `parent`."""
    return [end - start for span_name, start, end, up, _ in spans
            if span_name == name and (not parent or (up >= 0 and spans[up][0] == parent))]


def _self_ns(spans: list, name: str) -> int:
    """Time inside spans called `name`, minus the time their children cover."""
    own = {i for i, span in enumerate(spans) if span[0] == name}
    total = sum(spans[i][2] - spans[i][1] for i in own)
    covered = sum(end - start for _, start, end, parent, _ in spans if parent in own)
    return total - covered


def _steps_ns(spans: list) -> list[int]:
    """One applied step per journal.on_event span: from the start of the
    ledger.apply span before it to its own end (apply, digest, append,
    on_event)."""
    steps, apply_start = [], None
    for name, start, end, _, _ in spans:
        if name.startswith("ledger.apply/"):
            apply_start = start
        elif name.startswith("journal.on_event/") and apply_start is not None:
            steps.append(end - apply_start)
            apply_start = None
    return steps


def _genesis_ns(spans: list) -> int:
    """From the start of run_scenario to its first transaction: genesis
    construction, the working copy, the empty log and journal."""
    runner = next(span for span in spans if span[0] == "runner.run_scenario")
    first = next(span for span in spans
                 if span[0].startswith("ledger.apply/") or span[0] == "ledger.reject")
    return first[1] - runner[1]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_metrics(run: dict, audit: dict) -> dict:
    """Per-layer metrics of one traced run (its run phase and audit phase),
    except trace.overhead_ratio, which needs the untraced timing."""
    spans, counts = run["spans"], run["counts"]
    audit_spans = audit["spans"]

    def total_s(name, source=spans):
        return sum(_durations_ns(source, name)) / 1e9

    def us(values, q):
        return percentile(values, q) / 1e3 if values else 0.0

    def named(name):
        return _durations_ns(spans, name)

    steps = _steps_ns(spans)
    digests = _durations_ns(spans, "ledger.digest", parent="runner.run_scenario")

    out = {
        "cli.import_s": total_s("cli.import"),
        "scenario.yaml_s": total_s("scenario.yaml"),
        "scenario.validate_s": _self_ns(spans, "scenario.parse") / 1e9,
        "runner.genesis_s": _genesis_ns(spans) / 1e9,
        "runner.step_us.p50": us(steps, 50),
        "runner.step_us.p99": us(steps, 99),
        "runner.steps": len(steps),
        "ledger.apply_s": sum(total_s(f"ledger.apply/{kind}") for kind in TX_KINDS),
    }
    for kind in TX_KINDS:
        out[f"ledger.apply_us.{kind}"] = us(named(f"ledger.apply/{kind}"), 50)
    out.update({
        "ledger.rejected": len(_durations_ns(spans, "ledger.reject")),
        "ledger.reject_us.p50": us(named("ledger.reject"), 50),
        "ledger.digest_s": sum(digests) / 1e9,
        "ledger.digest_us.p50": us(digests, 50),
        "chainlog.append_s": total_s("chainlog.append"),
        "journal.on_event_s": sum(total_s(f"journal.on_event/{kind}")
                                  for kind in TX_KINDS),
        "journal.reprice_us.p50": us(named("journal.on_event/setPrice"), 50),
        "journal.reprice_us.p99": us(named("journal.on_event/setPrice"), 99),
        "journal.lots_live": counts["journal.lots_live"],
        "journal.entries": counts["journal.entries"],
        "journal.export_s": total_s("journal.export"),
        "journal.trial_balance_s": total_s("journal.trial_balance"),
        "reports.write_s": _self_ns(spans, "cli.run") / 1e9,
        "chainlog.to_text_s": total_s("chainlog.to_text"),
        "chainlog.from_text_s": total_s("chainlog.from_text", audit_spans),
        "chainlog.verify_text_s": total_s("chainlog.verify_text", audit_spans),
        "chainlog.replay_s": total_s("chainlog.replay", audit_spans),
        "chainlog.replay_reverify_s": sum(_durations_ns(
            audit_spans, "chainlog.verify", parent="chainlog.replay")) / 1e9,
    })
    return out


def combine(per_run: list[dict]) -> dict:
    """Median of each metric over the traced runs."""
    return {name: statistics.median(run[name] for run in per_run)
            for name in per_run[0]}
