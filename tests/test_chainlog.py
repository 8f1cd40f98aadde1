"""Chain log: canonical encoding, linkage, tamper detection, replay."""

import hashlib
import json
import random
import struct
import types

import pytest
from hypothesis import given, settings, strategies as st

import carbonmarket.chainlog as chainlog_module
from carbonmarket import ErrorCode, LedgerError, TokenLedger, Transaction, TxKind
from carbonmarket.chainlog import (GENESIS_PREV, ChainLog, advance, decode_transaction,
                                   encode_transaction, replay, verify_text)
from carbonmarket.fixed import Fixed
from conftest import LedgerDriver, fx, standard_market


def logged_driver(n_extra_txs=0):
    ledger = standard_market()
    genesis = ledger.copy()
    log = ChainLog(genesis.state_json())
    steps = [(TxKind.MINT_PERMIT, "A", "E", 100), (TxKind.TRANSFER_PERMIT, "E", "F", 10),
             (TxKind.BURN_TOKEN, "E", "", 5)]
    steps += [(TxKind.MINT_PERMIT, "A", "F", 1 + (i % 7)) for i in range(n_extra_txs)]
    for kind, sender, target, amount in steps:
        tx = Transaction(seq=ledger.seq + 1, time="t0", kind=kind, sender=sender,
                         target=target, amount=fx(amount))
        advance(ledger, tx, log)
    return LedgerDriver(ledger), genesis, log


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


def reference_encoding(tx):
    """The module docstring's layout written out, one struct.pack per field."""
    def text(value):
        raw = value.encode("utf-8")
        return struct.pack(">I", len(raw)) + raw
    present, micro = (0, 0) if tx.amount is None else (1, tx.amount.micro)
    payload = json.dumps(tx.payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return (b"CMTX1" + struct.pack(">Q", tx.seq) + text(tx.time) + text(tx.kind.value)
            + text(tx.sender) + text(tx.cosigner) + text(tx.target)
            + struct.pack(">B", present) + struct.pack(">q", micro) + text(payload))


MAX_MICRO = 2**63 - 1
TEXTS = st.text(max_size=8)             # empty and non-ASCII included
TRANSACTIONS = st.builds(
    Transaction, seq=st.integers(min_value=0, max_value=2**64 - 1), time=TEXTS,
    kind=st.sampled_from(TxKind), sender=TEXTS, target=TEXTS, cosigner=TEXTS,
    amount=st.none() | st.builds(Fixed, st.sampled_from([0, MAX_MICRO, -MAX_MICRO])
                                 | st.integers(min_value=-MAX_MICRO, max_value=MAX_MICRO)),
    payload=st.dictionaries(TEXTS, TEXTS | st.integers(), max_size=3))


@settings(max_examples=150, deadline=None)
@given(TRANSACTIONS, st.data())
def test_codec_writes_the_documented_layout_and_reads_only_what_it_writes(tx, data):
    blob = encode_transaction(tx)
    assert blob == reference_encoding(tx)
    assert decode_transaction(blob) == tx
    change = data.draw(st.sampled_from(["edit", "truncate", "append"]))
    if change == "edit":
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        mutated = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]
    elif change == "truncate":
        mutated = blob[:data.draw(st.integers(min_value=0, max_value=len(blob) - 1))]
    else:
        mutated = blob + bytes([data.draw(st.integers(min_value=0, max_value=255))])
    # a changed encoding is refused, or it is the encoding of what it decodes to
    try:
        decoded = decode_transaction(mutated)
    except LedgerError as exc:
        assert exc.code is ErrorCode.CHAIN_INVALID
    else:
        assert encode_transaction(decoded) == mutated


# a burn of 1 t ends u8(amount present) | i64be(micro) | u32be(2) | b"{}"
BURN = encode_transaction(Transaction(seq=1, time="t", kind=TxKind.BURN_TOKEN,
                                      sender="E", amount=fx(1)))


def burn_ending(present, micro, length, payload):
    return BURN[:-15] + struct.pack(">BqI", present, micro, length) + payload


@pytest.mark.parametrize("blob", [
    pytest.param(burn_ending(2, 10**6, 2, b"{}"), id="amount-flag-2"),
    pytest.param(burn_ending(0, 10**6, 2, b"{}"), id="flag-0-with-amount"),
    pytest.param(burn_ending(1, 10**6, 1, b"{}"), id="length-too-short"),
    pytest.param(burn_ending(1, 10**6, 3, b"{}"), id="length-too-long"),
    pytest.param(BURN + b"x", id="trailing-byte"),
    pytest.param(burn_ending(1, 10**6, 3, b"{ }"), id="payload-with-spaces"),
    pytest.param(burn_ending(1, -2**63, 2, b"{}"), id="min-i64-amount"),
    # JSON values that are not objects, falsy like the empty payload
    pytest.param(burn_ending(1, 10**6, 2, b"[]"), id="list-payload"),
    pytest.param(burn_ending(1, 10**6, 4, b"null"), id="null-payload"),
    pytest.param(burn_ending(1, 10**6, 1, b"0"), id="zero-payload"),
    pytest.param(burn_ending(1, 10**6, 2, b'""'), id="empty-string-payload"),
])
def test_decode_rejects_non_canonical_encoding(blob):
    assert burn_ending(1, 10**6, 2, b"{}") == BURN
    with pytest.raises(LedgerError) as err:
        decode_transaction(blob)
    assert err.value.code is ErrorCode.CHAIN_INVALID


@pytest.mark.parametrize("payload", [
    pytest.param('{"price":' + "9" * 5000 + "}", id="5000-digit-number"),
    pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting"),
])
def test_decode_rejects_a_payload_json_cannot_load(payload):
    blob = encode_transaction(Transaction(seq=1, time="t", kind=TxKind.SET_PRICE,
                                          sender="A", payload={}))
    raw = payload.encode("ascii")
    assert blob.endswith(struct.pack(">I", 2) + b"{}")
    with pytest.raises(LedgerError) as err:
        decode_transaction(blob[:-6] + struct.pack(">I", len(raw)) + raw)
    assert err.value.code is ErrorCode.CHAIN_INVALID


@pytest.mark.parametrize("kind", ["registerOrg", "registerProject", "initExchange"])
def test_log_holding_a_removed_kind_is_invalid(kind):
    # genesis creates orgs, projects and the exchange; a hand-built v1 log
    # entry of one of the kinds that once did so no longer decodes
    log = ChainLog(standard_market().state_json())
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
    # seq, tx-hex, tx digest, prev-hash, state digest, entry hash
    lines = [line.split(" ") for line in log.to_text().splitlines()[2:]]
    assert lines[0][3] == GENESIS_PREV.hex()
    for prev, line in zip(lines, lines[1:]):
        assert line[3] == prev[5]
    assert [e.tx.seq for e in log.entries] == [1, 2, 3]
    assert log.entries[0].tx.time == "t0"


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


# logged_driver's steps, plus price moves and times with non-ASCII text;
# a step the ledger refuses leaves the log as it was
LOGGED_STEPS = st.lists(st.tuples(
    st.sampled_from([(TxKind.MINT_PERMIT, "A", "E"), (TxKind.MINT_PERMIT, "A", "F"),
                     (TxKind.TRANSFER_PERMIT, "E", "F"), (TxKind.BURN_TOKEN, "E", ""),
                     (TxKind.SET_PRICE, "A", "")]),
    st.integers(min_value=1, max_value=50),
    st.sampled_from(["t0", "2020-06-30", "\u00e9t\u00e9 \"q\""])), max_size=8)


@settings(max_examples=50, deadline=None)
@given(LOGGED_STEPS)
def test_text_round_trip_keeps_every_entry(steps):
    ledger = standard_market()
    log = ChainLog(ledger.state_json())
    for (kind, sender, target), amount, time in steps:
        priced = kind is TxKind.SET_PRICE
        tx = Transaction(seq=ledger.seq + 1, time=time, kind=kind, sender=sender,
                         target=target, amount=None if priced else fx(amount),
                         payload={"price": amount * 10**6} if priced else {})
        try:
            advance(ledger, tx, log)
        except LedgerError:
            pass
    text = log.to_text()
    parsed = ChainLog.from_text(text)
    assert parsed.entries == log.entries
    assert parsed.to_text() == text


def flip_first_digit(hex_text):
    return ("0" if hex_text[0] != "0" else "1") + hex_text[1:]


def test_verify_flags_first_bad_entry():
    _, _, log = logged_driver()
    lines = log.to_text().splitlines()
    # a changed tx-hex or state digest is still re-written as given, and so
    # shows in the digest or hash computed from it; the field itself is
    # named when its hex is not the canonical lowercase
    damage = [("seq", lambda seq: "3"), ("tx-hex", str.upper),
              ("transaction digest", flip_first_digit), ("prev-hash", flip_first_digit),
              ("state digest", str.upper), ("entry hash", flip_first_digit)]
    for index, (name, change) in enumerate(damage):
        parts = lines[3].split(" ")
        parts[index] = change(parts[index])
        damaged = lines[:3] + [" ".join(parts)] + lines[4:]
        assert damaged != lines
        check = verify_text("\n".join(damaged) + "\n")
        assert not check.valid
        assert check.first_bad_seq == 2
        assert check.detail == f"entry 2: {name} mismatch"


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
    log = ChainLog(genesis.state_json())
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
    journal = Journal(result.genesis)
    ledger = replay(log, journal=journal)
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


def test_replay_of_a_parsed_log_checks_its_links_once(monkeypatch):
    driver, _, log = logged_driver(n_extra_txs=5)
    parsed = ChainLog.from_text(log.to_text())
    written, line = [], chainlog_module._line
    monkeypatch.setattr(chainlog_module, "_line",
                        lambda *args: written.append(args) or line(*args))
    assert replay(parsed).state_json() == driver.ledger.state_json()
    assert written == []    # from_text already re-wrote every line


def test_replay_rechecks_a_parsed_log_changed_in_memory():
    _, _, log = logged_driver()
    parsed = ChainLog.from_text(log.to_text())
    del parsed.entries[0]
    with pytest.raises(LedgerError) as err:
        replay(parsed)
    assert err.value.code is ErrorCode.STATE_MISMATCH
    assert err.value.message.startswith("entry 2 rejected on replay: SeqGap")


@pytest.mark.parametrize("digest, check", [
    (lambda digest: bytes([digest[0] ^ 1]) + digest[1:], (True, None, "")),
    (lambda digest: digest[:31], (False, 2, "entry 2: state digest is not 32 bytes")),
], ids=["flipped", "short"])
def test_replay_checks_an_in_memory_log_as_its_text(digest, check):
    # the text carries the hash chain; replay requires each logged digest
    _, _, log = logged_driver()
    log.entries[1] = log.entries[1]._replace(state_digest=digest(log.entries[1].state_digest))
    assert verify_text(log.to_text()) == check
    with pytest.raises(LedgerError) as err:
        replay(log)
    assert (err.value.code, err.value.message) == (
        ErrorCode.STATE_MISMATCH, "entry 2: replayed state digest diverges")


def test_replay_refuses_a_non_canonical_genesis_line():
    # the line hashes to the header, but the state it holds re-encodes to
    # another digest, so the log does not replay from it
    line = standard_market().state_json().replace(",", ", ")
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
    log = ChainLog.from_text(f"carbonmarket-chainlog 1 sha256 {digest}\ngenesis {line}\n")
    with pytest.raises(LedgerError) as err:
        replay(log)
    assert (err.value.code, err.value.message) == (
        ErrorCode.STATE_MISMATCH, "supplied genesis state does not match the recorded digest")
