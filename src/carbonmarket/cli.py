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
import sys
from pathlib import Path

from . import reports
from .chainlog import ChainLog, replay as replay_chain, verify_text
from .errors import ErrorCode, LedgerError
from .exchange import quote_buy_tokens, quote_spend_cash, validate_fraction
from .fixed import Fixed
from .journal import Journal
from .ledger import TokenLedger
from .runner import run_scenario
from .scenario import load_scenario

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2

_INPUT_CODES = {
    ErrorCode.SYNTAX_ERROR, ErrorCode.SCHEMA_ERROR, ErrorCode.REFERENCE_ERROR,
    ErrorCode.INVALID_RANGE, ErrorCode.INVALID_FRACTION, ErrorCode.INVALID_SUPPLY,
    ErrorCode.INVALID_AMOUNT, ErrorCode.INVALID_PRICE, ErrorCode.RESERVE_EXHAUSTED,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LedgerError(ErrorCode.SYNTAX_ERROR, f"cannot read {path!r}: {exc}")


def _amount(text: str) -> Fixed:
    try:
        return Fixed.parse(text)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario)
    out = sys.stdout
    out.write(reports.run_report_csv(result))
    out.write("\n")
    out.write(reports.balances_csv(result.final))
    out.write("\n")
    out.write(reports.compliance_csv(result.final))
    out.write(f"\nstate-digest {result.final.state_digest().hex()}\n")
    if args.out:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "genesis.json").write_text(result.genesis.state_json() + "\n",
                                                encoding="utf-8")
        (directory / "chainlog.log").write_text(result.chainlog.to_text(),
                                                encoding="utf-8")
        (directory / "journal.csv").write_text(result.journal.export_csv(),
                                               encoding="utf-8")
        (directory / "trial_balance.csv").write_text(
            reports.trial_balance_csv(result.journal), encoding="utf-8")
        (directory / "balances.csv").write_text(reports.balances_csv(result.final),
                                                encoding="utf-8")
        (directory / "compliance.csv").write_text(reports.compliance_csv(result.final),
                                                  encoding="utf-8")
        (directory / "market.csv").write_text(reports.market_csv(result.final),
                                              encoding="utf-8")
        (directory / "run.csv").write_text(reports.run_report_csv(result),
                                           encoding="utf-8")
    if not result.ok:
        failure = result.failure
        print(f"run failed at step {failure.index} ({failure.action}): "
              f"{failure.error}: {failure.detail}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    check = verify_text(_read(args.chainlog))
    if check.valid:
        print("chain valid")
        return EXIT_OK
    where = "?" if check.first_bad_seq is None else check.first_bad_seq
    print(f"chain INVALID at seq {where}: {check.detail}", file=sys.stderr)
    return EXIT_FAILURE


def _cmd_replay(args) -> int:
    log = ChainLog.from_text(_read(args.chainlog))
    genesis = TokenLedger.from_state_json(_read(args.genesis))
    ledger = replay_chain(log, genesis)
    print(f"replay ok: {len(log.entries)} transactions, "
          f"state-digest {ledger.state_digest().hex()}")
    sys.stdout.write(reports.balances_csv(ledger))
    return EXIT_OK


def _cmd_journal(args) -> int:
    log = ChainLog.from_text(_read(args.chainlog))
    journal = Journal()
    replay_chain(log, on_event=journal.on_event)
    sys.stdout.write(journal.export_csv())
    return EXIT_OK


def _cmd_quote(args) -> int:
    fraction = validate_fraction(args.f)
    supply = args.supply if args.supply is not None else args.s0
    reserve = args.reserve if args.reserve is not None else args.c0
    if args.buy_tokens is not None:
        quote = quote_buy_tokens(fraction, supply, reserve, args.buy_tokens)
    else:
        quote = quote_spend_cash(fraction, supply, reserve, args.spend_cash)
    print("tokens_delta,cash_delta,price_after")
    print(f"{quote.tokens_delta},{quote.cash_delta},{quote.price_after}")
    return EXIT_OK


def _cmd_price_curve(args) -> int:
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
    p.add_argument("--supply", type=_amount, help="current supply (defaults to --s0)")
    p.add_argument("--reserve", type=_amount, help="current reserve (defaults to --c0)")
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
    try:
        return args.func(args)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code in _INPUT_CODES:
            return EXIT_INPUT
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
