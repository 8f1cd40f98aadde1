"""Traced run of one scenario: the benchmark's per-layer numbers.

The program's own CLI entry point, ``carbonmarket.cli.main``, does the work;
this script only wraps library calls in place with tracer spans before it
calls it, so the spans time whatever path the CLI really takes.

    python3 perfbench/traced.py run SCENARIO OUTDIR SPANS.json
    python3 perfbench/traced.py audit OUTDIR SPANS.json

``run`` is ``carbonmarket run SCENARIO --out OUTDIR``, with spans around
``load_scenario`` (and the YAML loads inside it), ``run_scenario``,
``TokenLedger.apply``/``state_digest``, ``ChainLog.append``/``to_text``,
``Journal.on_event``/``export_csv`` and ``reports.trial_balance_csv``.
``audit`` is ``carbonmarket verify`` then ``carbonmarket replay`` on the log
in OUTDIR, with spans around ``verify_text``, ``ChainLog.from_text``,
``replay`` and ``ChainLog.verify``.  Standard output is the CLI's; the exit
code is 0 only if every CLI command exited 0.  Run with the repository's
``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from tracer import Tracer


def _timed(tr: Tracer, name: str, function):
    def timed(*args, **kwargs):
        with tr.span(name):
            return function(*args, **kwargs)
    return timed


class _TimedYaml:
    """Stands in for the yaml module inside carbonmarket.scenario, so that
    the loads parse_scenario makes are recorded as scenario.yaml spans."""

    def __init__(self, module, tr: Tracer):
        self._module = module
        self._tr = tr

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        return _timed(self._tr, "scenario.yaml", attr) if name in ("safe_load", "load") else attr


def _hook_run(tr: Tracer):
    """Spans for `carbonmarket run`; the CLI and runner call these names at
    call time, so replacing them in place is enough."""
    from carbonmarket import cli, reports, scenario
    from carbonmarket.chainlog import ChainLog
    from carbonmarket.errors import LedgerError
    from carbonmarket.journal import Journal
    from carbonmarket.ledger import TokenLedger

    scenario.yaml = _TimedYaml(scenario.yaml, tr)
    cli.load_scenario = _timed(tr, "scenario.parse", cli.load_scenario)

    run_scenario = cli.run_scenario

    def traced_run_scenario(parsed):
        with tr.span("runner.run_scenario"):
            result = run_scenario(parsed)
        tr.counts["journal.lots_live"] = sum(len(books.lots)
                                             for books in result.journal.books.values())
        tr.counts["journal.entries"] = len(result.journal.entries)
        return result
    cli.run_scenario = traced_run_scenario

    apply = TokenLedger.apply

    def traced_apply(ledger, tx):
        span = tr.begin(f"ledger.apply/{tx.kind.value}")
        try:
            event = apply(ledger, tx)
        except LedgerError:
            tr.end(span, rename="ledger.reject")
            raise
        tr.end(span)
        return event
    TokenLedger.apply = traced_apply

    on_event = Journal.on_event

    def traced_on_event(journal, event):
        with tr.span(f"journal.on_event/{event.tx.kind.value}"):
            return on_event(journal, event)
    Journal.on_event = traced_on_event

    TokenLedger.state_digest = _timed(tr, "ledger.digest", TokenLedger.state_digest)
    ChainLog.append = _timed(tr, "chainlog.append", ChainLog.append)
    ChainLog.to_text = _timed(tr, "chainlog.to_text", ChainLog.to_text)
    Journal.export_csv = _timed(tr, "journal.export", Journal.export_csv)
    reports.trial_balance_csv = _timed(tr, "journal.trial_balance", reports.trial_balance_csv)


def _hook_audit(tr: Tracer):
    """Spans for `carbonmarket verify` and `carbonmarket replay`."""
    from carbonmarket import cli
    from carbonmarket.chainlog import ChainLog

    cli.verify_text = _timed(tr, "chainlog.verify_text", cli.verify_text)
    cli.replay_chain = _timed(tr, "chainlog.replay", cli.replay_chain)
    ChainLog.from_text = staticmethod(_timed(tr, "chainlog.from_text", ChainLog.from_text))
    ChainLog.verify = _timed(tr, "chainlog.verify", ChainLog.verify)


def traced_run(scenario_path: str, out: str, tr: Tracer) -> int:
    with tr.span("cli.import"):
        from carbonmarket import cli
    _hook_run(tr)
    with tr.span("cli.run"):
        return cli.main(["run", scenario_path, "--out", out])


def traced_audit(out: Path, tr: Tracer) -> int:
    with tr.span("cli.import"):
        from carbonmarket import cli
    _hook_audit(tr)
    log, genesis = str(out / "chainlog.log"), str(out / "genesis.json")
    return cli.main(["verify", log]) or cli.main(["replay", log, genesis])


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "run" and len(argv) == 4:
        tr = Tracer(f"run-{os.getpid()}")
        code = traced_run(argv[1], argv[2], tr)
    elif mode == "audit" and len(argv) == 3:
        tr = Tracer(f"audit-{os.getpid()}")
        code = traced_audit(Path(argv[1]), tr)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    tr.write(argv[-1])
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
