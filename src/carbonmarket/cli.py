"""Command line front end.

Commands:
    run <scenario.yaml> [--out DIR]     execute a scenario, emit reports
    verify <chainlog>                   check hashes and linkage
    replay <chainlog> <genesis.json>    re-run a log against a genesis state
    journal <chainlog>                  regenerate the journal from a log
    quote ...                           price one trade on a curve
    price-curve ...                     tabulate spot price over a supply range

Exit codes: 0 success, 1 assertion or verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Iterable

from .chainlog import ChainLog, VerifyResult, replay as replay_chain, verify_text
from .errors import ErrorCode, LedgerError
from .fixed import ZERO, Fixed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2

# The cyclic GC thresholds a command runs under (generation 0, 1, 2); the
# interpreter's default is (700, 10, 10).  Under these the first generation 1
# collection, which re-scans what survived the younger ones, comes after half
# a million net allocations: a 3000-transaction `journal` makes about 80 000.
_GC_THRESHOLD = (10000, 50, 100)

_INPUT_CODES = {
    ErrorCode.SYNTAX_ERROR, ErrorCode.SCHEMA_ERROR, ErrorCode.REFERENCE_ERROR,
    ErrorCode.INVALID_RANGE, ErrorCode.INVALID_FRACTION, ErrorCode.INVALID_SUPPLY,
    ErrorCode.INVALID_AMOUNT, ErrorCode.INVALID_PRICE, ErrorCode.RESERVE_EXHAUSTED,
}


def _read(path: str, undecodable: ErrorCode = ErrorCode.SYNTAX_ERROR) -> str:
    """The file's UTF-8 text; other bytes raise `undecodable` (a chain log is
    written as UTF-8, so for a log they are a change to it)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LedgerError(ErrorCode.SYNTAX_ERROR, f"cannot read {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        raise LedgerError(undecodable, f"{path!r} is not UTF-8 text: {exc}")


def _amount(text: str) -> Fixed:
    try:
        return Fixed.parse(text)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# Each command imports the modules it runs when it runs: `verify` reads only
# the log format and loads no state machine, exchange or reports, and only
# `run` loads the scenario module (and PyYAML), which parses and runs a
# scenario.  These two stay names in this module, looked up when `run` calls
# them, so that the benchmark's `perfbench/traced.py` can replace them in
# place to time the parse and the run; do not inline them.
def load_scenario(path):
    from .scenario import load_scenario
    return load_scenario(path)


def run_scenario(scenario):
    from .scenario import run_scenario
    return run_scenario(scenario)


def _cmd_run(args) -> int:
    from . import reports
    result = run_scenario(load_scenario(args.scenario))
    run_csv = reports.run_report_csv(result)
    balances = reports.balances_csv(result.final)
    compliance = reports.compliance_csv(result.final)
    # the files first: a reader that closes standard output early, as
    # `| head` does, must not cost them
    if args.out:
        try:
            _write_reports(Path(args.out), result, run_csv, balances, compliance)
        except OSError as exc:
            raise LedgerError(ErrorCode.SYNTAX_ERROR,
                              f"cannot write {args.out!r}: {exc}") from exc
    sys.stdout.writelines((run_csv, "\n", balances, "\n", compliance,
                           f"\nstate-digest {result.final.state_digest().hex()}\n"))
    if not result.ok:
        failure = result.failure
        print(f"run failed at step {failure.index} ({failure.action}): "
              f"{failure.error}: {failure.detail}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _write_reports(directory: Path, result, run_csv: str, balances: str, compliance: str):
    """The `--out` files, reusing the three reports `run` then prints.
    The chain log and the journal are written as they are rendered, one
    entry or one event at a time, so neither text is ever held whole."""
    from . import reports

    def write(name: str, chunks: Iterable[str]):
        # opened as Path.write_text opens a file: UTF-8, default newline handling
        with open(directory / name, "w", encoding="utf-8") as out:
            out.writelines(chunks)

    directory.mkdir(parents=True, exist_ok=True)
    write("genesis.json", (result.chainlog.genesis_json, "\n"))
    write("chainlog.log", result.chainlog.text_lines())
    write("journal.csv", result.journal.csv_chunks())
    write("trial_balance.csv", (reports.trial_balance_csv(result.journal),))
    write("balances.csv", (balances,))
    write("compliance.csv", (compliance,))
    write("market.csv", (reports.market_csv(result.final),))
    write("run.csv", (run_csv,))


def _cmd_verify(args) -> int:
    try:
        check = verify_text(_read(args.chainlog, ErrorCode.CHAIN_INVALID))
    except LedgerError as exc:
        if exc.code is not ErrorCode.CHAIN_INVALID:
            raise
        check = VerifyResult(valid=False, detail=exc.message)
    if check.valid:
        print("chain valid")
        return EXIT_OK
    where = "?" if check.first_bad_seq is None else check.first_bad_seq
    print(f"chain INVALID at seq {where}: {check.detail}", file=sys.stderr)
    return EXIT_FAILURE


def _cmd_replay(args) -> int:
    from . import reports
    from .ledger import TokenLedger
    log = ChainLog.from_text(_read(args.chainlog, ErrorCode.CHAIN_INVALID))
    genesis = TokenLedger.from_state_json(_read(args.genesis))
    ledger = replay_chain(log, genesis)
    print(f"replay ok: {len(log.entries)} transactions, "
          f"state-digest {ledger.state_digest().hex()}")
    sys.stdout.write(reports.balances_csv(ledger))
    return EXIT_OK


def _cmd_journal(args) -> int:
    from .journal import Journal
    from .ledger import TokenLedger
    # from_text checks every link, so a broken log fails before the books open
    log = ChainLog.from_text(_read(args.chainlog, ErrorCode.CHAIN_INVALID))
    genesis = TokenLedger.from_state_json(log.genesis_json)
    journal = Journal(genesis)
    replay_chain(log, genesis, journal)
    sys.stdout.writelines(journal.csv_chunks())
    return EXIT_OK


def _cmd_quote(args) -> int:
    from .exchange import quote_buy_tokens, quote_spend_cash, spot_price, validate_fraction
    fraction = validate_fraction(args.f)
    supply, reserve = args.s0, args.c0
    if args.buy_tokens is not None:
        quote = quote_buy_tokens(fraction, supply, reserve, args.buy_tokens)
    else:
        quote = quote_spend_cash(fraction, supply, reserve, args.spend_cash)
    # the spot price after the trade, on the curve anchored where it starts;
    # a sale of the whole supply leaves no price
    try:
        after = supply + quote.tokens_delta
    except OverflowError as exc:
        raise LedgerError(ErrorCode.INVALID_AMOUNT,
                          f"the supply after the trade cannot be priced: {exc}") from exc
    price_after = ZERO if after <= ZERO else spot_price(fraction, supply, reserve, after)
    print("tokens_delta,cash_delta,price_after")
    print(f"{quote.tokens_delta},{quote.cash_delta},{price_after}")
    return EXIT_OK


def _cmd_price_curve(args) -> int:
    from . import reports
    sys.stdout.write(reports.price_curve_csv(args.f, args.s0, args.c0,
                                             args.min, args.max, args.points))
    return EXIT_OK


def _curve_args(parser: argparse.ArgumentParser):
    parser.add_argument("--f", type=_amount, required=True,
                        help="reserve fraction in (0, 1]")
    parser.add_argument("--s0", type=_amount, required=True,
                        help="baseline token supply")
    parser.add_argument("--c0", type=_amount, required=True,
                        help="baseline stablecoin reserve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonmarket",
        description="Deterministic emissions-trading ledger, exchange, and "
                    "carbon-accounting engine driven by scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="verify a chain log file")
    p.add_argument("chainlog")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("replay", help="replay a chain log against a genesis state")
    p.add_argument("chainlog")
    p.add_argument("genesis")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("journal", help="regenerate the journal from a chain log")
    p.add_argument("chainlog")
    p.set_defaults(func=_cmd_journal)

    p = sub.add_parser("quote", help="price one trade against a curve")
    _curve_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--buy-tokens", type=_amount,
                       help="signed token amount (negative sells)")
    group.add_argument("--spend-cash", type=_amount,
                       help="signed cash amount (negative cashes out)")
    p.set_defaults(func=_cmd_quote)

    p = sub.add_parser("price-curve", help="tabulate spot price over a supply range")
    _curve_args(p)
    p.add_argument("--min", type=_amount, required=True)
    p.add_argument("--max", type=_amount, required=True)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=_cmd_price_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    # A command is one short pass that keeps nearly everything it builds
    # until it exits, so cyclic collection finds next to nothing to free:
    # collect far less often.  Tests and scripts call main in process, so
    # their thresholds are put back on the way out.
    thresholds = gc.get_threshold()
    gc.set_threshold(*_GC_THRESHOLD)
    try:
        return args.func(args)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code in _INPUT_CODES:
            return EXIT_INPUT
        return EXIT_FAILURE
    finally:
        gc.set_threshold(*thresholds)


def console_main():
    """The process entry point: run one command, then exit with its code.

    A process ends right after its command, and the interpreter's shutdown
    runs full collections over every object still alive: the modules, the
    parsed log, the ledger and the journal, none of them garbage.  Freezing
    moves them to the permanent generation, which those collections skip;
    shutdown still flushes the streams, runs `atexit` and tears the modules
    down.  `main` stays free of it, so callers in process keep their heap.

    A reader that closes standard output early, as `| head` does, ends the
    command with exit code 1 and no traceback.  What is left unwritten goes
    to the null device, so the flush at shutdown fails no more."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILURE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
