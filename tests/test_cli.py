"""Command line behaviour: commands, exit codes, byte-stable outputs."""

import pytest

from carbonmarket.cli import main

from conftest import GOLDEN_SCENARIO, JOURNAL_OVERFLOW, SCENARIO_DIR


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


def test_schema_error_returns_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\ngenesis: {orgs: [{id: A, role: emperor}]}\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "SchemaError" in err


def test_missing_file_returns_two(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-file.yaml")
    assert code == 2


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
