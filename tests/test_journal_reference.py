"""The journal against `reference_journal`, the accounting policy restated.

After every applied event the two must agree on the entries it added (event,
org, and each line's account, side and micro-units, in booking order), on
the trial balance, and on any refusal of a booking that leaves the 64-bit
amount range, with its reason.  Run over the corpus, the benchmark
workloads and hypothesis-drawn transaction sequences.
"""

import pytest
from hypothesis import given, settings

from carbonmarket import ErrorCode, Journal, LedgerError

from conftest import JOURNAL_OVERFLOW, SCENARIO_DIR, applied_events, load_gen
from reference_journal import ReferenceJournal, Refused
from test_journal import GENESIS_AND_TRANSACTIONS, NO_SHRINK, drawn_genesis, drawn_transaction


def booked(entries) -> list:
    return [(entry.event_ref, entry.org,
             tuple((account.value, side.value, micro) for account, side, micro in entry.lines))
            for entry in entries]


def nets(journal: Journal) -> dict:
    return {account.value: net.micro for account, net in journal.trial_balance().items()}


def assert_agree(genesis, events) -> int:
    """Fold `events` through both journals, comparing after each; the number
    of events booked before the fold ended."""
    journal, reference = Journal(genesis), ReferenceJournal(genesis)
    for count, event in enumerate(events):
        try:
            added = journal.on_event(event)
        except LedgerError as exc:
            assert exc.code is ErrorCode.INVALID_AMOUNT
            with pytest.raises(Refused) as refusal:
                reference.on_event(event)
            tx = event.tx
            assert exc.message == f"cannot book seq {tx.seq} ({tx.kind.value}): {refusal.value}"
            assert booked(journal.entries) == reference.entries
            assert nets(journal) == reference.nets
            return count
        assert booked(added) == reference.on_event(event), event.tx
        assert nets(journal) == reference.nets, event.tx
    return len(events)


@pytest.mark.parametrize("text", [
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.stem)
      for path in sorted(SCENARIO_DIR.glob("*.yaml"))),
    pytest.param(JOURNAL_OVERFLOW, id="journal-overflow"),
])
def test_journal_matches_the_reference_on_the_corpus(text):
    genesis, events = applied_events(text)
    assert assert_agree(genesis, events) == (1 if "overflow" in text else len(events))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(load_gen().WORKLOADS))
def test_journal_matches_the_reference_on_the_workloads(workload, seed):
    genesis, events = applied_events(load_gen().generate(workload, seed))
    assert assert_agree(genesis, events) == len(events)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(*GENESIS_AND_TRANSACTIONS)
def test_journal_matches_the_reference_from_a_drawn_genesis(balances, price, exchange,
                                                            sequence):
    genesis = drawn_genesis(balances, price, exchange)
    ledger = genesis.copy()
    events = []
    for drawn in sequence:
        try:
            events.append(ledger.apply(drawn_transaction(ledger, drawn)))
        except LedgerError:
            continue
    assert_agree(genesis, events)
