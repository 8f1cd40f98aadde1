#!/usr/bin/env python3
"""Walk through one compliance year of the shipped carbon-market scenario.

Runs scenarios/app-rec-2020.yaml through the library, then narrates what the
ledger, the chain log, and the accounting journal recorded at each step.
"""

from pathlib import Path

from carbonmarket import Fixed, Side, load_scenario, run_scenario
from carbonmarket.chainlog import replay

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "app-rec-2020.yaml"


def main():
    scenario = load_scenario(str(SCENARIO))
    print(f"scenario: {scenario.name}")
    print(scenario.description.strip(), "\n")

    result = run_scenario(scenario)
    assert result.ok

    print("== ledger trajectory for enterprise E ==")
    ledger = result.genesis.copy()
    for entry in result.chainlog.entries:
        ledger.apply(entry.tx)
        record = ledger.org("E")
        print(f"  seq {entry.tx.seq:2d} {entry.tx.time} {entry.tx.kind.value:18s}"
              f" permit={str(record.permit):>12s} emission={str(record.emission):>12s}"
              f" cash={str(record.cash):>12s}")

    record = result.final.org("E")
    print(f"\nyear-end compliance: compliant={record.compliant}, "
          f"outstanding={record.emission}")

    print("\n== journal ==")
    for entry in result.journal.entries:
        for account, side, micro in entry.lines:
            indent = "    " if side is Side.CR else "  "
            print(f"  seq {entry.event_ref:2d} [{entry.org}]{indent}"
                  f"{side.value} {account.value:28s} {Fixed(micro)}")

    print("\n== trial balance (net debit) ==")
    for account, net in result.journal.trial_balance().items():
        print(f"  {account.value:30s} {account.account_class.value:10s} {net}")

    print("\n== chain log ==")
    print(f"  entries: {len(result.chainlog.entries)}")
    print(f"  head hash: {result.chainlog.to_text().split()[-1]}")
    replayed = replay(result.chainlog)
    same = replayed.state_digest() == result.final.state_digest()
    print(f"  replay reproduces the live state digest: {same}")


if __name__ == "__main__":
    main()
