"""The journal against `reference_journal`, the accounting policy restated.

After every applied event the two must agree on the entries it added (event,
org, and each line's account, side and micro-units, in booking order), on
the trial balance, and on any refusal of a booking that leaves the 64-bit
amount range, with its reason.  Run over the corpus, the benchmark
workloads and hypothesis-drawn transaction sequences, each led by issues at
several prices to one org and by uses of the lots they build.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonmarket import ErrorCode, Journal, LedgerError, TxKind

from conftest import JOURNAL_OVERFLOW, SCENARIO_DIR, applied_events, load_gen
from reference_journal import ReferenceJournal, Refused
from test_journal import GENESIS_AND_TRANSACTIONS, NO_SHRINK, drawn_genesis, drawn_transaction
from test_state_cache import TOKEN


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


@st.composite
def lots_at_several_prices(draw) -> tuple[list, list]:
    """Transactions, as `drawn_transaction` takes them, that give one org, E
    or F, lots at several issue prices, then use them: 2-5 issues, a price
    set before each after the first (only E, which owns a project, may be
    granted), then 2-6 uses: transfers to the other org, burns, and
    emissions by either org."""
    org = draw(st.sampled_from("EF"))
    other = "F" if org == "E" else "E"
    kinds = (TxKind.MINT_PERMIT, TxKind.GRANT_PERMIT) if org == "E" else (TxKind.MINT_PERMIT,)
    amounts = st.integers(1, 200 * TOKEN)
    issues = []
    for count in range(draw(st.integers(2, 5))):
        if count:
            price = draw(st.integers(1, 100 * TOKEN))
            issues.append(("tx", TxKind.SET_PRICE, "A", "", "", None, {"price": price}))
        kind = draw(st.sampled_from(kinds))
        signer = "A" if kind is TxKind.MINT_PERMIT else "V"
        issues.append(("tx", kind, signer, org, "", draw(amounts), {}))
    use = st.sampled_from([(TxKind.TRANSFER_PERMIT, org, other, ""),
                           (TxKind.BURN_TOKEN, org, "", ""),
                           (TxKind.MINT_EMISSION, org, "", "V"),
                           (TxKind.MINT_EMISSION, other, "", "V")])
    uses = [("tx", kind, sender, target, cosigner, draw(amounts), {})
            for kind, sender, target, cosigner in draw(st.lists(use, min_size=2, max_size=6))]
    return issues, uses


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(*GENESIS_AND_TRANSACTIONS, lots_at_several_prices())
def test_journal_matches_the_reference_from_a_drawn_genesis(balances, price, exchange,
                                                            sequence, lots):
    genesis = drawn_genesis(balances, price, exchange)
    ledger = genesis.copy()
    issues, uses = lots
    # the lots are built first, and always: every issue and price applies
    events = [ledger.apply(drawn_transaction(ledger, drawn)) for drawn in issues]
    for drawn in (*uses, *sequence):
        try:
            events.append(ledger.apply(drawn_transaction(ledger, drawn)))
        except LedgerError:
            continue
    assert_agree(genesis, events)
