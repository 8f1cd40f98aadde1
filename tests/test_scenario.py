"""Scenario parsing, validation, and runner semantics."""

from collections import Counter

import pytest
import yaml

import carbonmarket.scenario as scenario_module
from carbonmarket import ErrorCode, LedgerError, TxKind, parse_scenario, run_scenario
from carbonmarket.scenario import ACTIONS
from conftest import JOURNAL_OVERFLOW, SCENARIO_DIR, fx

MINIMAL = """
name: minimal
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise}
steps: []
"""


def code_of(text) -> ErrorCode:
    with pytest.raises(LedgerError) as err:
        parse_scenario(text)
    return err.value.code


def test_golden_scenario_parses(golden_run):
    scenario = golden_run.scenario
    assert scenario.name == "app-rec-2020"
    assert sorted({step.time for step in scenario.steps}) == [
        "2020-01-01", "2020-06-30", "2020-12-31"]
    counts = Counter(step.action for step in scenario.steps)
    assert sum(v for k, v in counts.items() if k != "expect") == 10
    assert counts["setPrice"] == 2
    assert counts["mintEmission"] == 2


def test_empty_steps_is_identity():
    result = run_scenario(parse_scenario(MINIMAL))
    assert result.ok
    assert result.final.state_json() == result.genesis.state_json()
    assert result.chainlog.entries == []
    assert result.journal.entries == []


def test_undeclared_org_is_a_reference_error():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, target: Z, amount: 5}
""")
    assert code_of(text) is ErrorCode.REFERENCE_ERROR


def test_unknown_action_is_a_schema_error():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintAllowance, signer: A, target: E, amount: 5}
""")
    with pytest.raises(LedgerError) as err:
        parse_scenario(text)
    assert err.value.code is ErrorCode.SCHEMA_ERROR
    assert err.value.message == (
        "steps[0]: unknown action 'mintAllowance'; expected one of ('setRole', "
        "'mintPermit', 'grantPermit', 'mintEmission', 'transferPermit', "
        "'burnToken', 'tradeToken', 'convertCash', 'setReserveFraction', "
        "'adjustReserve', 'setPrice', 'expect')")


@pytest.mark.parametrize("action", ["[1, 2]", "{x: 1}", "null"])
def test_unhashable_or_missing_action_is_a_schema_error(action):
    text = MINIMAL.replace("steps: []", f"""steps:
  - {{time: "t1", action: {action}, signer: A, target: E, amount: 5}}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_every_action_is_a_transaction_kind():
    assert set(ACTIONS) == {kind.value for kind in TxKind}


def test_yaml_syntax_error_reports_position():
    with pytest.raises(LedgerError) as err:
        parse_scenario("name: [unclosed")
    assert err.value.code is ErrorCode.SYNTAX_ERROR
    assert "line" in err.value.message


def test_float_amounts_rejected():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 0.1}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_quoted_decimal_amounts_accepted():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: "0.100000"}
""")
    scenario = parse_scenario(text)
    assert scenario.steps[0].fields["amount"] == fx("0.1")


def test_non_monotone_timestamps_rejected():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "2020-02-01", action: mintPermit, signer: A, target: E, amount: 5}
  - {time: "2020-01-01", action: mintPermit, signer: A, target: E, amount: 5}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_duplicate_genesis_org_rejected():
    text = MINIMAL.replace("- {id: E, role: enterprise}",
                           "- {id: A, role: enterprise}")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_missing_required_field_rejected():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, amount: 5}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_expect_fail_step_passes_when_rejected():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: E, target: E, amount: 5,
     expect_fail: Unauthorized}
""")
    result = run_scenario(parse_scenario(text))
    assert result.ok
    assert result.steps[0].status == "rejected"
    assert result.steps[0].error == "Unauthorized"
    # rejected transactions never reach the chain log
    assert result.chainlog.entries == []


def test_expect_fail_with_wrong_code_fails_run():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: E, target: E, amount: 5,
     expect_fail: ZeroAmount}
""")
    result = run_scenario(parse_scenario(text))
    assert not result.ok
    assert result.failure.error == ErrorCode.TRANSACTION_REJECTED.value


def test_expect_fail_on_a_passing_step_fails_run():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 5,
     expect_fail: Unauthorized}
""")
    result = run_scenario(parse_scenario(text))
    assert not result.ok
    assert result.failure.error == ErrorCode.ASSERTION_FAILED.value


def test_unexpected_rejection_reports_module_error():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: transferPermit, sender: E, target: A, amount: 5}
""")
    result = run_scenario(parse_scenario(text))
    assert not result.ok
    assert result.failure.error == ErrorCode.TRANSACTION_REJECTED.value
    assert "InsufficientBalance" in result.failure.detail


def test_failed_assertion_stops_the_run():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 5}
  - {time: "t1", action: expect, org: E, field: permit, equals: 6}
  - {time: "t2", action: mintPermit, signer: A, target: E, amount: 5}
""")
    result = run_scenario(parse_scenario(text))
    assert not result.ok
    assert result.failure.error == ErrorCode.ASSERTION_FAILED.value
    # the trailing step never ran
    assert len(result.steps) == 2


def test_journal_overflow_fails_the_step():
    result = run_scenario(parse_scenario(JOURNAL_OVERFLOW))
    assert not result.ok
    assert [step.status for step in result.steps] == ["applied", "failed"]
    assert result.failure.error == ErrorCode.INVALID_AMOUNT.value
    assert result.failure.seq == 2
    # the ledger applied the step and the log holds it; only the booking failed
    assert len(result.chainlog.entries) == 2
    assert result.final.org("E").permit == fx(1000000000010)
    assert len(result.journal.entries) == 1


def test_price_and_market_expectations():
    text = """
name: x
genesis:
  orgs:
    - {id: A, role: authority}
    - {id: E, role: enterprise, cash: 1000}
  exchange: {fraction: 1, supply: 100, reserve: 2000}
steps:
  - {time: "t1", action: expect, price: true, equals: 20}
  - {time: "t1", action: mintPermit, signer: A, target: E, amount: 100}
  - {time: "t1", action: expect, market: permit, equals: 100}
  - {time: "t2", action: expect, account: Income, equals: 0}
"""
    result = run_scenario(parse_scenario(text))
    assert result.ok, result.failure


def test_expect_unknown_account_rejected():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: expect, account: "Goodwill", equals: 0}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


def test_expect_needs_exactly_one_subject():
    text = MINIMAL.replace("steps: []", """steps:
  - {time: "t1", action: expect, org: E, market: permit, equals: 5}
""")
    assert code_of(text) is ErrorCode.SCHEMA_ERROR


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", ["app-rec-2020", "market-steering", "shortfall-year"])
def test_corpus_parses_identically_under_both_loaders(monkeypatch, name):
    text = (SCENARIO_DIR / f"{name}.yaml").read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    parsed = {}
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        parsed[loader] = parse_scenario(text)
    assert parsed[yaml.CSafeLoader] == parsed[yaml.SafeLoader]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text, position", [
    ("name: x\n  genesis: {}\n", "line 2, column 10"),              # scanner error
    ("name: x\nsteps: [\n  {time: t1},\n", "line 4, column 1"),   # parser error
])
def test_syntax_error_position_is_the_same_under_both_loaders(monkeypatch, text, position):
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        with pytest.raises(LedgerError) as err:
            parse_scenario(text)
        assert err.value.code is ErrorCode.SYNTAX_ERROR
        assert err.value.message.startswith(f"bad scenario file at {position}:")


def test_impossible_date_is_a_syntax_error():
    # PyYAML types a plain 2020-13-45 as a timestamp and datetime refuses it
    with pytest.raises(LedgerError) as err:
        parse_scenario(MINIMAL + "description: 2020-13-45\n")
    assert err.value.code is ErrorCode.SYNTAX_ERROR
    assert err.value.message == "bad scenario file: month must be in 1..12"
