"""Chain log: canonical encoding, linkage, tamper detection, replay."""

import dataclasses
import random
import types

import pytest

from carbonmarket import ErrorCode, LedgerError, TokenLedger, Transaction, TxKind
from carbonmarket.chainlog import (GENESIS_PREV, ChainLog, decode_transaction,
                                   encode_transaction, replay, verify_text)
from conftest import LedgerDriver, fx, standard_market


def logged_driver(n_extra_txs=0):
    ledger = standard_market()
    genesis = ledger.copy()
    driver = LedgerDriver(ledger)
    log = ChainLog.for_ledger(genesis)
    driver.mint_permit("A", "E", 100)
    log.append(driver.events[-1].tx, ledger.state_digest())
    driver.transfer_permit("E", "F", 10)
    log.append(driver.events[-1].tx, ledger.state_digest())
    driver.burn_token("E", 5)
    log.append(driver.events[-1].tx, ledger.state_digest())
    for i in range(n_extra_txs):
        driver.mint_permit("A", "F", 1 + (i % 7))
        log.append(driver.events[-1].tx, ledger.state_digest())
    return driver, genesis, log


def test_encode_decode_round_trip():
    tx = Transaction(seq=42, time="2020-06-30", kind=TxKind.CONVERT_CASH,
                     sender="E", amount=fx(-240), payload={})
    assert decode_transaction(encode_transaction(tx)) == tx
    tx2 = Transaction(seq=7, time="t", kind=TxKind.SET_ROLE, sender="A",
                      target="E", payload={"role": "verifier"})
    blob = encode_transaction(tx2)
    assert decode_transaction(blob) == tx2
    # canonical: re-encoding the decoded value reproduces identical bytes
    assert encode_transaction(decode_transaction(blob)) == blob


def test_decode_rejects_trailing_bytes():
    blob = encode_transaction(Transaction(seq=1, time="t", kind=TxKind.BURN_TOKEN,
                                          sender="E", amount=fx(1)))
    with pytest.raises(LedgerError) as err:
        decode_transaction(blob + b"x")
    assert err.value.code is ErrorCode.CHAIN_INVALID


@pytest.mark.parametrize("kind", ["registerOrg", "registerProject", "initExchange"])
def test_log_holding_a_removed_kind_is_invalid(kind):
    # genesis creates orgs, projects and the exchange; a hand-built v1 log
    # entry of one of the kinds that once did so no longer decodes
    log = ChainLog.for_ledger(standard_market())
    log.append(Transaction(seq=1, time="t", kind=types.SimpleNamespace(value=kind),
                           sender="A", target="G", payload={}), bytes(32))
    check = verify_text(log.to_text())
    assert not check.valid and check.first_bad_seq == 1
    assert f"unknown transaction kind {kind!r}" in check.detail
    with pytest.raises(LedgerError) as err:
        ChainLog.from_text(log.to_text())
    assert err.value.code is ErrorCode.CHAIN_INVALID


def test_genesis_entry_conventions():
    _, _, log = logged_driver()
    assert log.entries[0].prev_hash == GENESIS_PREV
    for prev, entry in zip(log.entries, log.entries[1:]):
        assert entry.prev_hash == prev.entry_hash
    assert [e.seq for e in log.entries] == [1, 2, 3]
    assert log.entries[0].timestamp == "t0"


def test_append_rejects_seq_gap():
    _, genesis, log = logged_driver()
    tx = Transaction(seq=9, time="t", kind=TxKind.MINT_PERMIT, sender="A",
                     target="E", amount=fx(1))
    with pytest.raises(LedgerError) as err:
        log.append(tx, bytes(32))
    assert err.value.code is ErrorCode.SEQ_GAP


def test_text_round_trip_and_verify():
    _, _, log = logged_driver()
    text = log.to_text()
    assert verify_text(text).valid
    parsed = ChainLog.from_text(text)
    assert parsed.to_text() == text
    assert verify_text(ChainLog(TokenLedger().state_json()).to_text()).valid


def test_verify_flags_first_bad_entry():
    _, _, log = logged_driver()
    lines = log.to_text().splitlines()
    # flip one hex digit inside entry 2's transaction digest
    parts = lines[3].split(" ")
    digest = list(parts[2])
    digest[0] = "0" if digest[0] != "0" else "1"
    parts[2] = "".join(digest)
    lines[3] = " ".join(parts)
    check = verify_text("\n".join(lines) + "\n")
    assert not check.valid
    assert check.first_bad_seq == 2


def test_replay_reproduces_state(golden_run):
    ledger = replay(golden_run.chainlog)
    assert ledger.state_digest() == golden_run.final.state_digest()
    record = ledger.org("E")
    assert record.permit == fx(0)
    assert record.emission == fx(0)


def test_replay_accepts_matching_supplied_genesis():
    driver, genesis, log = logged_driver()
    ledger = replay(log, genesis)
    assert ledger.state_digest() == driver.ledger.state_digest()


def test_replay_of_empty_log_is_identity():
    genesis = standard_market()
    log = ChainLog.for_ledger(genesis)
    assert replay(log).state_json() == genesis.state_json()


def test_replay_rejects_wrong_genesis():
    _, _, log = logged_driver()
    other = TokenLedger()
    with pytest.raises(LedgerError) as err:
        replay(log, other)
    assert err.value.code is ErrorCode.STATE_MISMATCH


def test_replay_rejects_tampered_log():
    _, _, log = logged_driver()
    data = bytearray(log.to_text(), "utf-8")
    data[-40] ^= 0x04  # inside the final entry hash
    with pytest.raises(LedgerError) as err:
        replay(ChainLog.from_text(bytes(data).decode("utf-8", "replace")))
    assert err.value.code is ErrorCode.CHAIN_INVALID


@pytest.mark.parametrize("name", ["app-rec-2020", "market-steering", "shortfall-year"])
def test_corpus_scenarios_replay_deterministically(name):
    from carbonmarket import Journal, load_scenario, run_scenario
    from conftest import SCENARIO_DIR
    result = run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.yaml")))
    assert result.ok, result.failure
    # a fresh parse of the serialized log must reproduce state and journal
    log = ChainLog.from_text(result.chainlog.to_text())
    journal = Journal()
    ledger = replay(log, on_event=journal.on_event)
    assert ledger.state_digest() == result.final.state_digest()
    assert journal.export_csv() == result.journal.export_csv()


def test_single_bit_corruptions_all_detected():
    _, _, log = logged_driver(n_extra_txs=20)
    data = log.to_text().encode("utf-8")
    rng = random.Random(2024)
    for _ in range(300):
        corrupted = bytearray(data)
        pos = rng.randrange(len(corrupted))
        corrupted[pos] ^= 1 << rng.randrange(8)
        text = bytes(corrupted).decode("utf-8", "replace")
        assert not verify_text(text).valid, f"flip at byte {pos} went undetected"


def test_replay_rejects_broken_in_memory_link():
    _, _, log = logged_driver()
    log.entries[1] = dataclasses.replace(log.entries[1], prev_hash=bytes(32))
    with pytest.raises(LedgerError) as err:
        replay(log)
    assert err.value.code is ErrorCode.CHAIN_INVALID
    assert "entry 2" in err.value.message
