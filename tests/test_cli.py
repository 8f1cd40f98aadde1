"""Command line behaviour: commands, exit codes, byte-stable outputs."""

import contextlib
import gc
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from carbonmarket import (ChainLog, ExchangeState, TokenLedger, Transaction, TxKind,
                          parse_scenario, run_scenario)
from carbonmarket.chainlog import advance, encode_transaction
from carbonmarket.cli import main
from carbonmarket.fixed import Fixed
from carbonmarket.reports import MAX_CURVE_POINTS

from conftest import (GOLDEN_SCENARIO, JOURNAL_OVERFLOW, SCENARIO_DIR, LedgerDriver,
                      endowed_genesis, fx, standard_market)

TOKEN = 10**6   # micro-units per token


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_golden_scenario(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(out_dir))
    assert code == 0
    assert "state-digest" in out
    for name in ("genesis.json", "chainlog.log", "journal.csv", "balances.csv",
                 "compliance.csv", "trial_balance.csv", "market.csv", "run.csv"):
        assert (out_dir / name).exists(), name


def test_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        code, out, _ = run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(out_dir))
        assert code == 0
        blob = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        outputs.append((out, blob))
    assert outputs[0] == outputs[1]


def test_verify_replay_journal_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(out_dir))
    chainlog = str(out_dir / "chainlog.log")
    genesis = str(out_dir / "genesis.json")

    code, out, _ = run_cli(capsys, "verify", chainlog)
    assert code == 0 and "chain valid" in out

    code, out, _ = run_cli(capsys, "replay", chainlog, genesis)
    assert code == 0 and "replay ok: 10 transactions" in out

    code, out, _ = run_cli(capsys, "journal", chainlog)
    assert code == 0
    assert out == (out_dir / "journal.csv").read_text()


def test_verify_detects_tampering(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(out_dir))
    path = out_dir / "chainlog.log"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "INVALID" in err


def test_failed_scenario_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
name: bad
genesis:
  orgs:
    - {id: A, role: authority}
steps:
  - {time: "t1", action: mintPermit, signer: A, target: A, amount: 5}
  - {time: "t1", action: expect, org: A, field: permit, equals: 6}
""", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "AssertionFailed" in err


def test_journal_overflow_is_a_typed_failure(tmp_path, capsys):
    scenario = tmp_path / "overflow.yaml"
    scenario.write_text(JOURNAL_OVERFLOW, encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", str(scenario), "--out", str(out_dir))
    assert code == 1
    assert "run failed at step 1 (mintPermit): InvalidAmount:" in err
    chainlog = str(out_dir / "chainlog.log")
    code, out, _ = run_cli(capsys, "verify", chainlog)
    assert code == 0 and out == "chain valid\n"
    code, out, err = run_cli(capsys, "journal", chainlog)
    assert code == 2
    assert out == ""
    assert "InvalidAmount" in err


# E's one token revalued up by about 4e12 three times: every entry fits the
# 64-bit amount range, but the third would carry the net of Gain on
# revaluation past it.  The expect step reads that net after two.
NET_OVERFLOW = """
name: net-overflow
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 1}
  - {time: "t2", action: setPrice, authority: A, price: 4000000000000}
  - {time: "t3", action: setPrice, authority: A, price: 1}
  - {time: "t4", action: setPrice, authority: A, price: 4000000000000}
  - {time: "t4", action: expect, account: Gain on revaluation, equals: -7999999999999}
  - {time: "t5", action: setPrice, authority: A, price: 1}
  - {time: "t6", action: setPrice, authority: A, price: 4000000000000}
"""


def test_running_net_overflow_is_a_typed_failure(tmp_path, capsys):
    scenario = tmp_path / "net-overflow.yaml"
    scenario.write_text(NET_OVERFLOW, encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", str(scenario), "--out", str(out_dir))
    assert code == 1
    assert err.startswith("run failed at step 6 (setPrice): InvalidAmount: ")
    assert "Traceback" not in err
    trial = (out_dir / "trial_balance.csv").read_text(encoding="utf-8")
    assert "Gain on revaluation,Equity,-7999999999999.000000\n" in trial
    code, out, err = run_cli(capsys, "journal", str(out_dir / "chainlog.log"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidAmount: cannot book seq 6 (setPrice): ")


# Selling the whole supply books proceeds of 4.7e12 and releases deferred
# income of 4.7e12: every line and every running net stays in range, but the
# entry's debit total, 9.4e18 micro-units, is past 2**63.
ENTRY_OVERFLOW = """
name: entry-overflow
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
  exchange: {fraction: 1, supply: 1000000, reserve: 4700000000000}
steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 1000000}
  - {time: "t2", action: tradeToken, sender: E, amount: -1000000}
"""


def test_entry_total_overflow_is_a_typed_failure(tmp_path, capsys):
    scenario = tmp_path / "entry-overflow.yaml"
    scenario.write_text(ENTRY_OVERFLOW, encoding="utf-8")
    out_dir = tmp_path / "out"
    detail = "cannot book seq 2 (tradeToken): amount exceeds the representable range"
    code, _, err = run_cli(capsys, "run", str(scenario), "--out", str(out_dir))
    assert code == 1
    assert err == f"run failed at step 1 (tradeToken): InvalidAmount: {detail}\n"
    journal = (out_dir / "journal.csv").read_text(encoding="utf-8")
    assert journal.splitlines()[1:] == [
        "1,Emission permit-Allowances,Asset,Dr,4700000000000.000000",
        "1,Deferred income,Liability,Cr,4700000000000.000000"]
    trial = (out_dir / "trial_balance.csv").read_text(encoding="utf-8")
    assert "\nCash,Asset,0.000000\n" in trial
    assert "\nIncome,Equity,0.000000\n" in trial
    code, out, err = run_cli(capsys, "journal", str(out_dir / "chainlog.log"))
    assert code == 2
    assert out == ""
    assert err == f"error: InvalidAmount: {detail}\n"


def write_log(path, genesis, *steps):
    """A hash-correct chain log of `steps` (kind, sender, target, amount,
    payload) applied to `genesis`."""
    ledger = genesis.copy()
    log = ChainLog(genesis.state_json())
    for kind, sender, target, amount, payload in steps:
        tx = Transaction(seq=ledger.seq + 1, time="t", kind=kind, sender=sender,
                         target=target, amount=None if amount is None else fx(amount),
                         payload=payload)
        ledger.apply(tx)
        log.append(tx, ledger.state_digest())
    path.write_text(log.to_text(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("sender, digest, detail", [
    # the ledger refuses the entry: only an authority mints permits
    ("E", None, "entry 1 rejected on replay: Unauthorized: 'E' must hold the authority role"),
    # the ledger applies the entry, but the log recorded another state
    ("A", bytes(32), "entry 1: replayed state digest diverges"),
])
def test_replay_divergence_is_a_state_mismatch(tmp_path, capsys, sender, digest, detail):
    # both logs are hash-correct, so `verify` passes them; `replay` and
    # `journal` re-run the entry and find it does not give the logged state
    genesis = standard_market()
    chain = ChainLog(genesis.state_json())
    chain.append(Transaction(seq=1, time="t", kind=TxKind.MINT_PERMIT, sender=sender,
                             target="E", amount=fx(10)),
                 genesis.state_digest() if digest is None else digest)
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (0, "chain valid\n", "")
    for argv in (["replay", str(log), str(state)], ["journal", str(log)]):
        assert run_cli(capsys, *argv) == (1, "", f"error: StateMismatch: {detail}\n")


def test_an_entry_with_several_faults_is_refused_for_the_first_checked(tmp_path, capsys):
    # a mintPermit of 0 signed by an unregistered org: the ledger resolves
    # the orgs before it checks the amount, so the unknown signer is named
    genesis = standard_market()
    chain = ChainLog(genesis.state_json())
    chain.append(Transaction(seq=1, time="t", kind=TxKind.MINT_PERMIT, sender="Z",
                             target="E", amount=fx(0)), genesis.state_digest())
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (0, "chain valid\n", "")
    detail = "entry 1 rejected on replay: UnknownOrg: organisation 'Z' is not registered"
    for argv in (["replay", str(log), str(state)], ["journal", str(log)]):
        assert run_cli(capsys, *argv) == (1, "", f"error: StateMismatch: {detail}\n")


def test_journal_opens_from_genesis_balances(tmp_path, capsys):
    # genesis permits are one opening lot and genesis emissions an opening
    # liability at the genesis price (20), neither booked
    genesis = endowed_genesis(standard_market(), 20 * TOKEN, E=(10 * TOKEN, 3 * TOKEN))
    transfer = (TxKind.TRANSFER_PERMIT, "E", "F", 5, {})
    log = write_log(tmp_path / "transfer.log", genesis, transfer)
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    assert run_cli(capsys, "journal", log) == (0, "event,account,class,side,amount\n", "")

    log = write_log(tmp_path / "revalue.log", genesis, transfer,
                    (TxKind.SET_PRICE, "A", "", None, {"price": 25 * TOKEN}),
                    (TxKind.BURN_TOKEN, "E", "", 5, {}))
    code, out, _ = run_cli(capsys, "journal", log)
    assert code == 0
    assert out.splitlines()[1:] == [
        "2,Emission permit,Asset,Dr,25.000000",              # E's 5 held
        "2,Emission permit,Asset,Dr,25.000000",              # F's 5 received
        "2,Loss on revaluation,Equity,Dr,15.000000",         # 3 t from 20 to 25
        "2,Gain on revaluation,Equity,Cr,25.000000",
        "2,Gain on revaluation,Equity,Cr,25.000000",
        "2,Permit surrenderable,Liability,Cr,15.000000",
        "3,Expenses-Emissions,Equity,Dr,50.000000",
        "3,Permit surrenderable,Liability,Dr,75.000000",     # the whole 3 t liability
        "3,Emission permit,Asset,Cr,125.000000",
    ]


def test_genesis_liability_overflow_is_a_typed_failure(tmp_path, capsys):
    genesis = endowed_genesis(standard_market(), 20 * TOKEN, E=(0, 10**12 * TOKEN))
    log = write_log(tmp_path / "chainlog.log", genesis)
    assert run_cli(capsys, "verify", log)[0] == 0
    code, out, err = run_cli(capsys, "journal", log)
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidAmount: cannot open 'E' at genesis")


def test_broken_link_fails_before_the_books_open(tmp_path, capsys):
    # the genesis liability would overflow when the books open, but the
    # log's broken entry hash is reported first
    genesis = endowed_genesis(standard_market(), 20 * TOKEN, E=(0, 10**12 * TOKEN))
    log = tmp_path / "chainlog.log"
    write_log(log, genesis, (TxKind.SET_PRICE, "A", "", None, {"price": 25 * TOKEN}))
    text = log.read_text(encoding="utf-8")
    log.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "journal", str(log))
    assert (code, out) == (1, "")
    assert err.startswith("error: ChainInvalid: entry 1: entry hash mismatch")


@pytest.mark.parametrize("field, value", [
    ("seq", '"x"'), ("seq", "[1]"), ("seq", "1.5"), ("seq", "NaN"), ("seq", "-5"),
    ("seq", "true"), ("seq", str(2**64)), ("seq", str(10**22)),
    ("format", '"carbonmarket-state-2"'),
    # json.loads raises a plain ValueError and a RecursionError for these
    pytest.param("seq", "9" * 5000, id="seq-5000-digits"),
    pytest.param("seq", "[" * 100000 + "]" * 100000, id="seq-deep-nesting"),
])
def test_bad_genesis_line_is_an_invalid_chain(tmp_path, capsys, field, value):
    genesis = standard_market().state_json()
    good = {"seq": '"seq":0', "format": '"format":"carbonmarket-state-1"'}[field]
    assert good in genesis
    line = genesis.replace(good, f'"{field}":{value}')
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
    log = tmp_path / "chainlog.log"
    log.write_text(f"carbonmarket-chainlog 1 sha256 {digest}\ngenesis {line}\n",
                   encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(log))
    assert (code, out) == (1, "")
    assert err.startswith("chain INVALID at seq ?: ")
    for argv in (["replay", str(log), str(state)], ["journal", str(log)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ChainInvalid: ")


def test_minimum_amount_is_an_invalid_chain(tmp_path, capsys):
    # i64 -2**63 fits the amount field but is no amount: a hash-correct
    # entry holding it is invalid, not a traceback
    genesis = standard_market()
    chain = ChainLog(genesis.state_json())
    chain.append(Transaction(seq=1, time="t", kind=TxKind.BURN_TOKEN, sender="E",
                             amount=types.SimpleNamespace(micro=-2**63)), bytes(32))
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(log))
    assert (code, out) == (1, "")
    assert err.startswith("chain INVALID at seq 1: ")
    for argv in (["replay", str(log), str(state)], ["journal", str(log)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ChainInvalid: ")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_a_payload_number_json_does_not_hold_is_an_invalid_chain(tmp_path, capsys, number):
    # Python's json reads these tokens, but they are no JSON and the writer
    # does not write them, so a hash-correct entry holding one is invalid
    genesis = standard_market()
    tx = Transaction(seq=1, time="t", kind=TxKind.SET_PRICE, sender="A",
                     payload={"price": float(number)})
    with pytest.raises(ValueError):
        encode_transaction(tx)
    raw = f'{{"price":{number}}}'.encode("ascii")
    blob = encode_transaction(tx._replace(payload={}))[:-6] + struct.pack(">I", len(raw)) + raw
    # the entry line as the format defines it, after the all-zero prev-hash
    state, prev = genesis.state_digest(), bytes(32)
    tx_digest = hashlib.sha256(blob).digest()
    entry_hash = hashlib.sha256(struct.pack(">Q", 1) + tx_digest + state + prev).digest()
    chain = ChainLog(genesis.state_json())
    log = tmp_path / "chainlog.log"
    log.write_text(f"{chain.to_text()}1 {blob.hex()} "
                   f"{tx_digest.hex()} {prev.hex()} {state.hex()} {entry_hash.hex()}\n",
                   encoding="utf-8")
    state_file = tmp_path / "genesis.json"
    state_file.write_text(genesis.state_json() + "\n", encoding="utf-8")
    detail = "entry 1: transaction not in canonical encoding"
    assert run_cli(capsys, "verify", str(log)) == (1, "", f"chain INVALID at seq 1: {detail}\n")
    for argv in (["replay", str(log), str(state_file)], ["journal", str(log)]):
        assert run_cli(capsys, *argv) == (1, "", f"error: ChainInvalid: {detail}\n")


def test_log_anchored_at_a_later_genesis(tmp_path, capsys):
    # the log starts from a state at seq 3, so its first entry is seq 4
    ledger = standard_market()
    driver = LedgerDriver(ledger)
    driver.mint_permit("A", "E", 100)
    driver.transfer_permit("E", "F", 10)
    driver.set_price("A", 20)
    genesis = ledger.copy()
    chain = ChainLog(genesis.state_json())
    advance(ledger, Transaction(seq=4, time="t", kind=TxKind.MINT_PERMIT, sender="A",
                                target="F", amount=fx(5)), chain)
    advance(ledger, Transaction(seq=5, time="t", kind=TxKind.SET_PRICE, sender="A",
                                payload={"price": 25 * TOKEN}), chain)
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (0, "chain valid\n", "")
    code, out, err = run_cli(capsys, "replay", str(log), str(state))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (f"replay ok: 2 transactions, "
                                   f"state-digest {ledger.state_digest().hex()}")
    assert run_cli(capsys, "journal", str(log)) == (0, (
        "event,account,class,side,amount\n"
        "4,Emission permit-Allowances,Asset,Dr,100.000000\n"     # 5 t at 20
        "4,Deferred income,Liability,Cr,100.000000\n"
        "5,Emission permit,Asset,Dr,450.000000\n"               # E's 90 t, 20 to 25
        "5,Emission permit,Asset,Dr,75.000000\n"                # F's 15 t
        "5,Gain on revaluation,Equity,Cr,450.000000\n"
        "5,Gain on revaluation,Equity,Cr,75.000000\n"), "")

    text, tx = chain.to_text(), chain.entries[0].tx
    log.write_text(text.replace(encode_transaction(tx).hex(),
                                encode_transaction(tx._replace(seq=1)).hex()), encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (
        1, "", "chain INVALID at seq 4: entry 4: embedded transaction claims seq 1\n")


@pytest.mark.parametrize("kind, payload, detail", [
    (TxKind.SET_PRICE, {"price": "20"},
     "setPrice payload field 'price' must be integer micro-units"),
    (TxKind.SET_ROLE, {"role": 5}, "setRole payload field 'role' must be a non-empty string"),
    (TxKind.SET_RESERVE_FRACTION, {"fraction": True},
     "setReserveFraction payload field 'fraction' must be integer micro-units"),
])
def test_payload_field_of_the_wrong_type_is_refused_on_replay(tmp_path, capsys, kind,
                                                               payload, detail):
    # the hash links are correct, so only re-applying the entry finds it
    genesis = standard_market()
    genesis.setup_init_exchange(fx("0.5"), fx(1000), fx(10000))
    chain = ChainLog(genesis.state_json())
    chain.append(Transaction(seq=1, time="t", kind=kind, sender="A",
                             target="E" if kind is TxKind.SET_ROLE else "", payload=payload),
                 genesis.state_digest())
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (0, "chain valid\n", "")
    for argv in (["replay", str(log), str(state)], ["journal", str(log)]):
        assert run_cli(capsys, *argv) == (
            1, "", f"error: StateMismatch: entry 1 rejected on replay: SchemaError: {detail}\n")


def test_journal_needs_a_canonical_genesis_line(tmp_path, capsys):
    # `journal` replays from the genesis it loaded, which must re-encode to
    # the recorded digest, as a genesis file given to `replay` must
    line = standard_market().state_json().replace(",", ", ")
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
    log = tmp_path / "chainlog.log"
    log.write_text(f"carbonmarket-chainlog 1 sha256 {digest}\ngenesis {line}\n",
                   encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (0, "chain valid\n", "")
    code, out, err = run_cli(capsys, "journal", str(log))
    assert (code, out) == (1, "")
    assert err.startswith("error: StateMismatch: ")



@pytest.mark.parametrize("projects, detail", [
    ({"F": ["p1"]}, "project 'p1' already registered to 'E'"),
    ({"V": ["p1"]}, "project 'p1' already registered to 'V'"),     # V precedes E
    ({"E": ["p1", "p1"]}, "project 'p1' already registered to 'E'"),
    ({"A": ["pA"]}, "projects are owned by enterprises"),
    ({"E": [""]}, "project id must be a non-empty string"),
    ({"E": [5]}, "project id must be a non-empty string"),
    ({"E": "p1"}, "projects of 'E' must be a list"),
    # a JSON lone surrogate is a str, but no report or log can write it
    ({"E": ["p\udfff"]}, "project id 'p\\udfff' is not encodable as UTF-8"),
])
def test_genesis_the_setup_calls_refuse_is_a_schema_error(tmp_path, capsys, projects,
                                                          detail):
    # `verify` checks integrity only, so the log is valid; loading its
    # genesis state runs the checks the scenario path's genesis passes
    state = json.loads(standard_market().state_json())
    for org in state["orgs"]:
        org["projects"] = projects.get(org["id"], org["projects"])
    log, genesis = genesis_only_log(tmp_path, state)
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    for argv in (["replay", log, genesis], ["journal", log]):
        assert run_cli(capsys, *argv) == (2, "", f"error: SchemaError: bad state org: {detail}\n")


def genesis_only_log(tmp_path, state: dict) -> tuple[str, str]:
    """A log holding only the genesis `state`, in canonical JSON, and a
    genesis file holding the same state."""
    line = json.dumps(state, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
    log = tmp_path / "chainlog.log"
    log.write_text(f"carbonmarket-chainlog 1 sha256 {digest}\ngenesis {line}\n",
                   encoding="utf-8")
    genesis = tmp_path / "genesis.json"
    genesis.write_text(line + "\n", encoding="utf-8")
    return str(log), str(genesis)


def renamed_e(org_id: str, project: str) -> dict:
    """The standard market's state with E renamed `org_id`, owning `project`."""
    state = json.loads(standard_market().state_json())
    org = next(org for org in state["orgs"] if org["id"] == "E")
    org["id"], org["projects"] = org_id, [project]
    return state


def test_an_org_id_not_encodable_as_utf8_is_a_schema_error(tmp_path, capsys):
    # `verify` checks integrity only; the id is refused as the state
    # loads, before any report must write it
    log, genesis = genesis_only_log(tmp_path, renamed_e("E\ud800", "p1"))
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    for argv in (["replay", log, genesis], ["journal", log]):
        assert run_cli(capsys, *argv) == (2, "", (
            "error: SchemaError: bad state org: "
            "organisation id 'E\\ud800' is not encodable as UTF-8\n"))


def test_ids_escaped_as_a_surrogate_pair_load(tmp_path, capsys):
    state = renamed_e("E\U0001F600", "p\U0001F600")
    log, genesis = genesis_only_log(tmp_path, state)
    assert "\\ud83d\\ude00" in Path(log).read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, "replay", log, genesis)
    assert (code, err) == (0, "")
    assert "E\U0001F600,enterprise,0.000000,0.000000,100000.000000,p\U0001F600\n" in out
    assert run_cli(capsys, "journal", log) == (0, "event,account,class,side,amount\n", "")


def test_negative_genesis_price_is_a_schema_error(tmp_path, capsys):
    # no transaction makes the price negative, so the log is written from a
    # ledger whose price was set below zero directly; the journal's entries
    # at that price would not balance
    genesis = endowed_genesis(standard_market(), 7 * TOKEN, E=(3 * TOKEN, 5 * TOKEN))
    genesis.market_price = Fixed(-7 * TOKEN)
    log = write_log(tmp_path / "chainlog.log", genesis,
                    (TxKind.MINT_PERMIT, "A", "E", 2, {}),
                    (TxKind.BURN_TOKEN, "E", "", 4, {}),
                    (TxKind.SET_PRICE, "A", "", None, {"price": 3 * TOKEN}))
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    for argv in (["replay", log, str(state)], ["journal", log]):
        assert run_cli(capsys, *argv) == (2, "", "error: SchemaError: negative market price\n")


@pytest.mark.parametrize("supply, reserve, detail", [
    (-5 * TOKEN, TOKEN, "exchange baseline supply must be positive"),
    (0, TOKEN, "exchange baseline supply must be positive"),
    (TOKEN, -1, "negative exchange baseline reserve"),
])
def test_an_exchange_anchor_no_state_reaches_is_a_schema_error(tmp_path, capsys,
                                                               supply, reserve, detail):
    # with no permits out, `setPrice` rebases at the baseline supply, so a
    # negative one would drive the reserve negative (3 * 0.5 * -5 = -7.5)
    genesis = TokenLedger()
    genesis.setup_register_org("A", "authority")
    genesis.market_price = Fixed(2 * TOKEN)
    genesis.exchange = ExchangeState(fraction=Fixed(TOKEN // 2), reserve=Fixed(TOKEN),
                                     baseline_supply=Fixed(supply),
                                     baseline_reserve=Fixed(reserve))
    log = write_log(tmp_path / "chainlog.log", genesis,
                    (TxKind.SET_PRICE, "A", "", None, {"price": 3 * TOKEN}))
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    for argv in (["replay", log, str(state)], ["journal", log]):
        assert run_cli(capsys, *argv) == (2, "", f"error: SchemaError: {detail}\n")


@pytest.mark.parametrize("fraction", [0, 2])
def test_a_loaded_reserve_fraction_outside_the_unit_interval_is_a_schema_error(
        tmp_path, capsys, fraction):
    # a fault of a loaded state, like its other faults; the setup call and
    # `setReserveFraction` report the same range as InvalidFraction
    genesis = standard_market()
    genesis.exchange = ExchangeState(fraction=Fixed(fraction * TOKEN), reserve=Fixed(TOKEN),
                                     baseline_supply=Fixed(TOKEN),
                                     baseline_reserve=Fixed(TOKEN))
    log = write_log(tmp_path / "chainlog.log", genesis)
    state = tmp_path / "genesis.json"
    state.write_text(genesis.state_json() + "\n", encoding="utf-8")
    detail = f"reserve fraction must lie in (0, 1], got {fraction}.000000"
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    for argv in (["replay", log, str(state)], ["journal", log]):
        assert run_cli(capsys, *argv) == (2, "", f"error: SchemaError: {detail}\n")


def test_a_state_whose_baseline_reserve_is_empty_loads(tmp_path, capsys):
    # a sale of the whole supply empties the reserve, and `setReserveFraction`
    # then anchors the curve at that empty reserve
    final = run_scenario(parse_scenario("""
name: sell-off
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
  exchange: {fraction: 1, supply: 100, reserve: 2000}
steps:
  - {time: t1, action: mintPermit, signer: A, target: E, amount: 100}
  - {time: t2, action: tradeToken, sender: E, amount: -100}
  - {time: t3, action: setReserveFraction, authority: A, fraction: "0.5"}
""")).final
    state = json.loads(final.state_json())
    assert state["exchange"]["baseline_reserve"] == 0
    log, genesis = genesis_only_log(tmp_path, state)
    assert run_cli(capsys, "replay", log, genesis)[0] == 0
    assert run_cli(capsys, "journal", log) == (0, "event,account,class,side,amount\n", "")


APPLIED_EXPECT_FAIL = """
name: applied-expect-fail
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 10}
  - {time: "t2", action: mintPermit, signer: A, target: E, amount: 5, expect_fail: true}
"""


def test_log_of_a_run_failed_by_an_applied_step_replays_to_its_state(tmp_path, capsys):
    # the second step was expected to fail but applied: the run fails, and
    # its log and journal hold that transaction as its final state does
    scenario = tmp_path / "applied.yaml"
    scenario.write_text(APPLIED_EXPECT_FAIL, encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "run", str(scenario), "--out", str(out_dir))
    assert code == 1
    assert err.startswith("run failed at step 1 (mintPermit): AssertionFailed: ")
    digest = out.split("\nstate-digest ")[1].strip()
    assert (out_dir / "run.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "0,t1,mintPermit,applied,1,,",
        "1,t2,mintPermit,failed,2,AssertionFailed,"
        "step was expected to fail with any error but was applied"]
    log, genesis = str(out_dir / "chainlog.log"), str(out_dir / "genesis.json")
    code, out, _ = run_cli(capsys, "replay", log, genesis)
    assert code == 0
    assert out.splitlines()[0] == f"replay ok: 2 transactions, state-digest {digest}"
    code, out, _ = run_cli(capsys, "journal", log)
    assert code == 0
    assert out == (out_dir / "journal.csv").read_text(encoding="utf-8")


def test_schema_error_returns_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\ngenesis: {orgs: [{id: A, role: emperor}]}\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "SchemaError" in err


@pytest.mark.parametrize("genesis, step, detail", [
    ("{id: A, role: authority, true: 2, x: 3}", "",
     "genesis.orgs[0]: unknown fields ['x', True]"),
    ("{id: A, role: authority}",
     "{time: t1, action: burnToken, sender: A, amount: 1, ~: 1, x: 2}",
     "steps[0]: unknown fields ['x', None]"),
], ids=["genesis-org", "step"])
def test_unknown_fields_of_mixed_key_types_return_two(tmp_path, capsys, genesis, step, detail):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"name: x\ngenesis: {{orgs: [{genesis}]}}\nsteps: [{step}]\n",
                   encoding="utf-8")
    assert run_cli(capsys, "run", str(bad)) == (2, "", f"error: SchemaError: {detail}\n")


# each optional field of a scenario, spelled with the value {}; the steps
# run without failing
OPTIONAL_FIELDS = {
    "description": "description: {}\ngenesis: {{orgs: [{{id: A, role: authority}}]}}\n",
    "projects": "genesis: {{orgs: [{{id: A, role: authority}}], projects: {}}}\n",
    "cash": "genesis: {{orgs: [{{id: A, role: authority, cash: {}}}]}}\n",
    "exchange": "genesis: {{orgs: [{{id: A, role: authority}}], exchange: {}}}\n",
    "steps": "genesis: {{orgs: [{{id: A, role: authority}}]}}\nsteps: {}\n",
    "expect_fail": ("genesis: {{orgs: [{{id: A, role: authority}}, {{id: E, role: enterprise}}]}}\n"
                    "steps: [{{time: t1, action: mintPermit, signer: A, target: E, amount: 1,"
                    " expect_fail: {}}}]\n"),
    "expect step's expect_fail": (
        "genesis: {{orgs: [{{id: A, role: authority}}]}}\n"
        "steps: [{{time: t1, action: expect, price: true, equals: 0, expect_fail: {}}}]\n"),
}


@pytest.mark.parametrize("field", OPTIONAL_FIELDS)
@pytest.mark.parametrize("null", ["~", "null", ""])
def test_a_null_optional_field_takes_its_default(tmp_path, capsys, field, null):
    scenario = tmp_path / "null.yaml"
    scenario.write_text("name: x\n" + OPTIONAL_FIELDS[field].format(null), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(scenario))
    assert (code, err) == (0, "")


WRONGLY_TYPED_OPTIONAL_FIELDS = [
    ("description", "false", "document: description must be a string"),
    ("description", "[]", "document: description must be a string"),
    ("projects", "false", "genesis: projects must be a list"),
    ("projects", '""', "genesis: projects must be a list"),
    ("projects", "{}", "genesis: projects must be a list"),
    ("cash", "false", "genesis.orgs[0]: field 'cash': booleans are not amounts"),
    ("exchange", "false", "genesis.exchange: must be a mapping"),
    ("steps", "false", "steps: must be a list"),
    ("steps", "{}", "steps: must be a list"),
    ("expect_fail", "false", "steps[0]: expect_fail must be true or a known error code"),
    ("expect step's expect_fail", "false", "steps[0]: expect steps cannot carry expect_fail"),
]


@pytest.mark.parametrize("field, value, detail", WRONGLY_TYPED_OPTIONAL_FIELDS,
                         ids=[f"{field}: {value}" for field, value, _ in WRONGLY_TYPED_OPTIONAL_FIELDS])
def test_an_optional_field_of_another_type_returns_two(tmp_path, capsys, field, value, detail):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text("name: x\n" + OPTIONAL_FIELDS[field].format(value), encoding="utf-8")
    assert run_cli(capsys, "run", str(scenario)) == (2, "", f"error: SchemaError: {detail}\n")


def test_readme_scenario_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1]
    example = tmp_path / "example.yaml"
    example.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(example))
    assert (code, err) == (0, "")


def test_genesis_project_of_an_authority_returns_two(tmp_path, capsys):
    # the genesis setup calls refuse it while the scenario is parsed: an
    # input error, not a rejected transaction
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
name: x
genesis:
  orgs:
    - {id: A, role: authority}
  projects:
    - {owner: A, project: p1}
""", encoding="utf-8")
    assert run_cli(capsys, "run", str(bad)) == (
        2, "", "error: SchemaError: genesis.projects[0]: projects are owned by enterprises\n")


def test_genesis_exchange_without_reserve_returns_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
name: x
genesis:
  orgs:
    - {id: A, role: authority}
  exchange: {fraction: "0.5", supply: 1000, reserve: 0}
""", encoding="utf-8")
    assert run_cli(capsys, "run", str(bad)) == (
        2, "", "error: InvalidAmount: baseline reserve must be positive\n")


EXTREME_AMOUNTS = """
name: extreme-amounts
genesis:
  orgs:
    - {{id: A, role: authority}}
    - {{id: E, role: enterprise, cash: "{cash}"}}
steps:
  - {{time: "t1", action: mintPermit, signer: A, target: E, amount: "{amount}"}}
  - {{time: "t1", action: expect, org: E, field: permit, equals: "{equals}"}}
"""


@pytest.mark.parametrize("field, value, detail", [
    ("amount", "1e400000000",
     "steps[0]: field 'amount': amount exceeds the representable range"),
    ("cash", "1e-400000000", "genesis.orgs[1]: field 'cash': amount '1e-400000000' "
                             "is finer than the 1e-6 resolution"),
    ("equals", "1e400000000",
     "steps[1]: field 'equals': amount exceeds the representable range"),
    ("equals", "nan", "steps[1]: field 'equals': not a finite amount: 'nan'"),
    # spellings Decimal reads but an amount is not written in
    ("amount", "1_000", "steps[0]: field 'amount': not a decimal amount: '1_000'"),
    ("cash", " 2 ", "genesis.orgs[1]: field 'cash': not a decimal amount: ' 2 '"),
    ("equals", "\u0661\u0662",
     "steps[1]: field 'equals': not a decimal amount: '\u0661\u0662'"),
])
def test_extreme_amount_in_a_scenario_returns_two(tmp_path, capsys, field, value, detail):
    fields = {"cash": "1", "amount": "1", "equals": "1", field: value}
    scenario = tmp_path / "extreme.yaml"
    scenario.write_text(EXTREME_AMOUNTS.format(**fields), encoding="utf-8")
    assert run_cli(capsys, "run", str(scenario)) == (2, "", f"error: SchemaError: {detail}\n")


@pytest.mark.parametrize("argv", [
    ("quote", "--f", "0.5", "--s0", "1000", "--c0", "10000", "--buy-tokens", "1e400000000"),
    ("quote", "--f", "0.5", "--s0", "1000", "--c0", "10000", "--spend-cash", "1e-400000000"),
    ("price-curve", "--f", "0.5", "--s0", "1e400000000", "--c0", "1", "--min", "1",
     "--max", "2"),
    ("quote", "--f", "0.5", "--s0", "1000", "--c0", "10000", "--buy-tokens", "1_000"),
    ("quote", "--f", "0.5", "--s0", "1000", "--c0", "10000", "--buy-tokens", " 2 "),
    ("quote", "--f", "0.5", "--s0", "1_000", "--c0", "10000", "--buy-tokens", "1"),
])
def test_extreme_amount_argument_returns_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument" in err


def test_missing_file_returns_two(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-file.yaml")
    assert code == 2


@pytest.mark.parametrize("command", ["run", "verify"])
def test_missing_file_is_a_syntax_error(capsys, command):
    code, out, err = run_cli(capsys, command, "no-such-file")
    assert (code, out) == (2, "")
    assert err.startswith("error: SyntaxError: cannot read ")


@pytest.mark.parametrize("corrupt, detail", [
    (lambda state: state["orgs"][2].update(permit=-1) or state["market"].update(permit=-1),
     "negative balance on 'E'"),
    (lambda state: state["market"].update(permit=5),
     "market totals do not match the balance sums"),
    (lambda state: state.update(exchange={"baseline_reserve": 1, "baseline_supply": 1,
                                          "fraction": TOKEN, "reserve": -1}),
     "negative exchange reserve"),
])
def test_replay_refuses_an_inconsistent_genesis_file(tmp_path, capsys, corrupt, detail):
    genesis = standard_market()
    log = write_log(tmp_path / "chainlog.log", genesis)
    state = json.loads(genesis.state_json())
    corrupt(state)
    path = tmp_path / "genesis.json"
    path.write_text(json.dumps(state, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    assert run_cli(capsys, "replay", log, str(path)) == (
        2, "", f"error: SchemaError: {detail}\n")


@pytest.mark.parametrize("damage, detail", [
    (lambda text: text.split("\n")[0] + "\n", "missing header or genesis line"),
    (lambda text: text.replace(" sha256 ", " md5 ", 1), "unsupported hash function 'md5'"),
    (lambda text: text.replace("\ngenesis ", "\ngenesys ", 1),
     "second line must carry the genesis state"),
])
def test_verify_refuses_a_malformed_log(tmp_path, capsys, damage, detail):
    text = ChainLog(standard_market().state_json()).to_text()
    log = tmp_path / "chainlog.log"
    log.write_text(damage(text), encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (1, "", f"chain INVALID at seq ?: {detail}\n")


def test_verify_refuses_a_short_state_digest(tmp_path, capsys):
    chain = ChainLog(standard_market().state_json())
    chain.append(Transaction(seq=1, time="t", kind=TxKind.MINT_PERMIT, sender="A",
                             target="E", amount=fx(10)), bytes(31))
    log = tmp_path / "chainlog.log"
    log.write_text(chain.to_text(), encoding="utf-8")
    assert run_cli(capsys, "verify", str(log)) == (
        1, "", "chain INVALID at seq 1: entry 1: state digest is not 32 bytes\n")


def test_set_price_with_no_permits_outstanding_rebases_at_the_baseline(tmp_path, capsys):
    # C = F * s * P at the baseline supply: 0.5 * 100 * 20
    scenario = tmp_path / "reprice.yaml"
    scenario.write_text("""
name: reprice
genesis:
  orgs:
    - {id: A, role: authority}
  exchange: {fraction: "0.5", supply: 100, reserve: 50}
steps:
  - {time: "t1", action: setPrice, authority: A, price: 20}
""", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "run", str(scenario), "--out", str(out_dir))[0] == 0
    assert (out_dir / "market.csv").read_text(encoding="utf-8").splitlines() == [
        "quantity,value", "permit,0.000000", "emission,0.000000", "price,20.000000",
        "reserve,1000.000000", "fraction,0.500000", "baseline_supply,100.000000",
        "baseline_reserve,1000.000000"]


@pytest.mark.parametrize("command, bad, code, message", [
    ("run", "scenario", 2, "error: SyntaxError"),
    ("verify", "log", 1, "chain INVALID at seq ?"),
    ("replay", "log", 1, "error: ChainInvalid"),
    ("replay", "genesis", 2, "error: SyntaxError"),
    ("journal", "log", 1, "error: ChainInvalid"),
])
def test_non_utf8_file_is_a_typed_error(tmp_path, capsys, command, bad, code, message):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(out_dir))
    scenario, log, genesis = (tmp_path / "scenario.yaml", out_dir / "chainlog.log",
                              out_dir / "genesis.json")
    scenario.write_bytes(GOLDEN_SCENARIO.read_bytes())
    path = {"scenario": scenario, "log": log, "genesis": genesis}[bad]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF  # never a byte of UTF-8 text
    path.write_bytes(bytes(data))
    argv = {"run": [scenario], "verify": [log], "replay": [log, genesis],
            "journal": [log]}[command]
    got, _, err = run_cli(capsys, command, *map(str, argv))
    assert got == code
    assert message in err
    assert "can't decode byte 0xff" in err


def test_out_path_that_is_a_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "README.md"
    taken.write_text("not a directory\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(GOLDEN_SCENARIO), "--out", str(taken))
    assert code == 2
    assert err.startswith(f"error: SyntaxError: cannot write {str(taken)!r}")


def test_quote_buy_and_spend(capsys):
    code, out, _ = run_cli(capsys, "quote", "--f", "0.5", "--s0", "1000",
                           "--c0", "10000", "--buy-tokens", "100")
    assert code == 0
    assert out.splitlines()[1] == "100.000000,2100.000000,22.000000"

    code, out, _ = run_cli(capsys, "quote", "--f", "0.5", "--s0", "1000",
                           "--c0", "10000", "--spend-cash", "2100")
    assert code == 0
    assert out.splitlines()[1].startswith("100.000000,2100.000000")


def test_quote_rejects_bad_amounts(capsys):
    code, _, err = run_cli(capsys, "quote", "--f", "0.5", "--s0", "1000",
                           "--c0", "10000", "--buy-tokens", "0")
    assert code == 2
    assert "InvalidAmount" in err


def test_price_curve_output(capsys):
    code, out, _ = run_cli(capsys, "price-curve", "--f", "1", "--s0", "1000",
                           "--c0", "20000", "--min", "500", "--max", "1500",
                           "--points", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "supply,price"
    prices = {line.split(",")[1] for line in lines[1:]}
    assert prices == {"20.000000"}


def test_price_curve_invalid_range(capsys):
    code, _, err = run_cli(capsys, "price-curve", "--f", "1", "--s0", "1000",
                           "--c0", "20000", "--min", "1500", "--max", "500")
    assert code == 2
    assert "InvalidRange" in err


def test_price_curve_of_one_point_is_an_input_error(capsys):
    assert run_cli(capsys, "price-curve", "--f", "1", "--s0", "1000", "--c0", "20000",
                   "--min", "500", "--max", "1500", "--points", "1") == (
        2, "", "error: InvalidRange: need at least 2 points\n")


def test_price_curve_points_are_bounded(capsys):
    argv = ("price-curve", "--f", "0.5", "--s0", "1000", "--c0", "10000",
            "--min", "500", "--max", "2000", "--points")
    assert run_cli(capsys, *argv, "1000000000000") == (
        2, "", f"error: InvalidRange: need at most {MAX_CURVE_POINTS} points\n")
    code, out, _ = run_cli(capsys, *argv, str(MAX_CURVE_POINTS))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + MAX_CURVE_POINTS
    assert lines[1].startswith("500.000000,") and lines[-1].startswith("2000.000000,")


def test_quote_at_zero_supply_is_an_input_error(capsys):
    assert run_cli(capsys, "quote", "--f", "0.5", "--s0", "0", "--c0", "10000",
                   "--spend-cash", "10") == (
        2, "", "error: InvalidSupply: exchange has no outstanding supply\n")


def test_quote_of_a_sale_of_the_whole_supply_leaves_no_price(capsys):
    assert run_cli(capsys, "quote", "--f", "0.5", "--s0", "1000", "--c0", "10000",
                   "--buy-tokens", "-1000") == (
        0, "tokens_delta,cash_delta,price_after\n-1000.000000,-10000.000000,0.000000\n", "")


@pytest.mark.parametrize("reserve", ["-5", "0"])
@pytest.mark.parametrize("trade", [("--buy-tokens", "10"), ("--spend-cash", "10")])
def test_quote_on_a_reserve_that_is_not_positive_is_an_input_error(capsys, reserve, trade):
    # the curve divides by the reserve: on a negative one a buy would pay the buyer
    assert run_cli(capsys, "quote", "--f", "0.5", "--s0", "1000", "--c0", reserve,
                   *trade) == (
        2, "", "error: ReserveExhausted: the exchange reserve is empty\n")


@pytest.mark.parametrize("argv, detail", [
    # the legs fit (0.2 tokens for 1.76e12 cash); the spot price after does not
    (("--f", "0.5", "--s0", "1", "--c0", "4000000000000", "--buy-tokens", "0.2"),
     "the spot price at supply 1.200000 cannot be priced"),
    (("--f", "1", "--s0", "9000000000000", "--c0", "1", "--buy-tokens", "9000000000000"),
     "the supply after the trade cannot be priced"),
])
def test_quote_whose_price_after_is_beyond_the_range_is_an_input_error(capsys, argv, detail):
    assert run_cli(capsys, "quote", *argv) == (
        2, "", f"error: InvalidAmount: {detail}: amount exceeds the representable range\n")


# each of --s0, --c0 and the amount: negative, zero, one micro-unit,
# ordinary, or 1e12
QUOTE_AMOUNTS = st.one_of(st.integers(-10**6, -1).map(str), st.just("0"), st.just("0.000001"),
                          st.integers(1, 10**6).map(str), st.just("1000000000000"))


# no shrinking, as in test_journal_mirrors_ledger_from_genesis: the unshrunk
# argument vector is reported at once
@settings(max_examples=100, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.sampled_from(("0.1", "0.5", "1")), QUOTE_AMOUNTS, QUOTE_AMOUNTS,
       st.sampled_from(("--buy-tokens", "--spend-cash")), QUOTE_AMOUNTS)
@example("0.5", "1000", "-5", "--buy-tokens", "10")   # a buy that would pay the buyer
def test_quote_prints_two_legs_of_one_sign_or_refuses(fraction, supply, reserve, kind, amount):
    argv = ["quote", "--f", fraction, "--s0", supply, "--c0", reserve, kind, amount]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 0:
        tokens, cash, price_after = map(Fixed.parse, out.getvalue().splitlines()[1].split(","))
        assert not tokens.is_zero and not cash.is_zero, argv
        assert tokens.is_positive == cash.is_positive, argv
        assert price_after >= Fixed(0), argv
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv


THIN_CURVE = """
name: thin-curve
genesis:
  orgs:
    - {{id: A, role: authority}}
    - {{id: E, role: enterprise, cash: 3000000000000}}
  exchange: {{fraction: "0.5", supply: 1, reserve: 4000000000000}}
steps:
  - {{time: "t1", action: mintPermit, signer: A, target: E, amount: 1}}
  - {{time: "t2", action: {action}, sender: E, amount: "{amount}"}}
  - {{time: "t2", action: expect, org: E, field: permit, equals: "1.2"}}
"""


@pytest.mark.parametrize("action, amount", [
    ("tradeToken", "0.2"),
    ("convertCash", "1760000000000"),   # costs exactly 0.2 tokens
])
def test_trade_is_refused_only_for_its_own_legs(tmp_path, capsys, action, amount):
    # 0.2 tokens on this curve cost 1.76e12 of E's 3e12 cash; the spot price
    # after the trade (~9.6e12) is beyond the representable range, but a
    # trade does not move the market price, so it has no bearing
    scenario = tmp_path / "thin.yaml"
    scenario.write_text(THIN_CURVE.format(action=action, amount=amount), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", str(scenario), "--out", str(out_dir))
    assert code == 0
    assert "\nE,enterprise,1.200000,0.000000,1240000000000.000000,\n" in out
    digest = out.split("\nstate-digest ")[1].strip()
    log, genesis = str(out_dir / "chainlog.log"), str(out_dir / "genesis.json")
    assert run_cli(capsys, "verify", log) == (0, "chain valid\n", "")
    code, out, _ = run_cli(capsys, "replay", log, genesis)
    assert code == 0
    assert out.splitlines()[0] == f"replay ok: 2 transactions, state-digest {digest}"
    code, out, _ = run_cli(capsys, "journal", log)
    assert code == 0
    assert out == (out_dir / "journal.csv").read_text(encoding="utf-8")


PRICED_FIRST = """
name: priced-first
genesis:
  orgs:
    - {{id: A, role: authority}}
    - {{id: E, role: enterprise}}
  exchange: {{fraction: "{fraction}", supply: 100, reserve: {reserve}}}
steps:
  - {{time: "t1", action: mintPermit, signer: A, target: E, amount: 100}}
{setup}  - {{time: "t2", action: {action}, sender: E, amount: "{amount}", expect_fail: {code}}}
"""


@pytest.mark.parametrize("curve, trade, detail", [
    # a setPrice whose F * s * P rounds to zero empties the reserve
    (("0.5", 1000, '  - {time: "t1", action: setPrice, authority: A, price: "0.000001"}\n'),
     ("convertCash", "5", "ReserveExhausted"), "the exchange reserve is empty"),
    (("0.5", 1000, '  - {time: "t1", action: setPrice, authority: A, price: "0.000001"}\n'),
     ("tradeToken", "1", "ReserveExhausted"), "the exchange reserve is empty"),
    # one micro-unit of cash buys less than one micro-token
    (("1", 10000000, ""), ("convertCash", "0.000001", "InvalidAmount"),
     "trade too small to price"),
])
def test_trade_is_priced_before_the_sender_pays(tmp_path, capsys, curve, trade, detail):
    # E holds no cash: a quote refusal wins over InsufficientCash
    (fraction, reserve, setup), (action, amount, code) = curve, trade
    scenario = tmp_path / "priced-first.yaml"
    scenario.write_text(PRICED_FIRST.format(fraction=fraction, reserve=reserve, setup=setup,
                                            action=action, amount=amount, code=code),
                        encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "run", str(scenario), "--out", str(out_dir))[0] == 0
    row = (out_dir / "run.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    assert row[2:4] + row[5:] == [action, "rejected", code, detail]


def test_market_steering_scenario_runs(capsys):
    code, out, _ = run_cli(capsys, "run", str(SCENARIO_DIR / "market-steering.yaml"))
    assert code == 0


def test_bad_usage_returns_two(capsys):
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ("--f", "0.01", "--s0", "1", "--c0", "1", "--buy-tokens", "1000000"),
    ("--f", "0.1", "--s0", "1", "--c0", "1", "--buy-tokens", "1000"),
])
def test_quote_beyond_the_curve_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, "quote", *argv)
    assert code == 2
    assert out == ""
    assert "InvalidAmount" in err


@pytest.mark.parametrize("argv, code_name", [
    (("--f", "0.01", "--s0", "1", "--c0", "1", "--min", "1", "--max", "1000",
      "--points", "3"), "InvalidAmount"),
    (("--f", "0", "--s0", "1", "--c0", "1", "--min", "1", "--max", "10"),
     "InvalidFraction"),
    (("--f", "0.5", "--s0", "0", "--c0", "1", "--min", "1", "--max", "10"),
     "InvalidSupply"),
    (("--f", "2", "--s0", "1", "--c0", "1", "--min", "1", "--max", "10"),
     "InvalidFraction"),
])
def test_price_curve_bad_anchor_or_overflow_is_an_input_error(capsys, argv, code_name):
    code, out, err = run_cli(capsys, "price-curve", *argv)
    assert code == 2
    assert out == ""
    assert code_name in err


def test_deeply_nested_scenario_is_a_syntax_error(tmp_path):
    # libyaml's composer recursed once per level and ended the process
    scenario = tmp_path / "deep.yaml"
    scenario.write_text("name: x\nsteps: " + "[" * 40000 + "]" * 40000 + "\n", encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "carbonmarket.cli", "run", str(scenario)],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: SyntaxError: bad scenario file at line 2, column ")
    assert "nesting deeper than" in proc.stderr


@pytest.mark.parametrize("argv, expected", [
    (["journal", "LOG"], 0),
    (["price-curve", "--f", "1", "--s0", "1000", "--c0", "20000", "--min", "500",
      "--max", "1500", "--points", "1"], 2),
    (["journal"], 2),
], ids=["journal", "ledger-error", "usage-error"])
def test_main_leaves_the_gc_state_as_it_found_it(tmp_path, capsys, golden_run,
                                                 argv, expected):
    log = tmp_path / "chainlog.log"
    log.write_text(golden_run.chainlog.to_text(), encoding="utf-8")
    argv = [str(log) if arg == "LOG" else arg for arg in argv]
    thresholds = gc.get_threshold()
    gc.set_threshold(1234, 5, 6)    # neither the interpreter's default nor the CLI's
    try:
        before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
        assert run_cli(capsys, *argv)[0] == expected
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before
    finally:
        gc.set_threshold(*thresholds)
