import pytest

from carbonmarket import ErrorCode, LedgerError, Role, TokenLedger
from carbonmarket.ledger import parse_role
from carbonmarket.fixed import ZERO

from conftest import LedgerDriver, fx


def test_role_string_round_trip():
    for text in ("authority", "enterprise", "verifier"):
        assert parse_role(text).value == text
        assert parse_role(parse_role(text)) is parse_role(text)
    with pytest.raises(LedgerError) as err:
        parse_role("installation")
    assert (err.value.code, err.value.message) == (
        ErrorCode.SCHEMA_ERROR, "unknown role 'installation'; "
                                "expected one of ('authority', 'enterprise', 'verifier')")


def test_a_verifier_is_an_enterprise_and_an_authority_is_neither():
    assert [(role.is_authority, role.is_enterprise, role.is_verifier) for role in Role] == [
        (True, False, False), (False, True, False), (False, True, True)]


def test_register_org_takes_a_role_or_its_name():
    ledger = TokenLedger()
    assert ledger.setup_register_org("A", Role.AUTHORITY).role is Role.AUTHORITY
    assert ledger.setup_register_org("V", "verifier").role is Role.VERIFIER
    with pytest.raises(LedgerError) as err:
        ledger.setup_register_org("X", "installation")
    assert err.value.code is ErrorCode.SCHEMA_ERROR
    assert list(ledger.registry) == ["A", "V"]


def test_register_org_zero_initialised():
    ledger = TokenLedger()
    record = ledger.setup_register_org("A", Role.AUTHORITY)
    assert record.permit == ZERO
    assert record.emission == ZERO
    assert record.cash == ZERO
    assert record.projects == set()
    # round trip: the registry returns exactly the record registered
    assert ledger.org("A") is record


def test_register_org_enterprise_role():
    ledger = TokenLedger()
    record = ledger.setup_register_org("E", Role.ENTERPRISE)
    assert record.role.is_enterprise and not record.role.is_verifier


def test_register_duplicate_rejected():
    ledger = TokenLedger()
    ledger.setup_register_org("A", Role.AUTHORITY)
    with pytest.raises(LedgerError) as err:
        ledger.setup_register_org("A", Role.AUTHORITY)
    assert err.value.code is ErrorCode.DUPLICATE_ID


def test_register_org_requires_nonempty_id():
    ledger = TokenLedger()
    with pytest.raises(LedgerError) as err:
        ledger.setup_register_org("", Role.AUTHORITY)
    assert err.value.code is ErrorCode.SCHEMA_ERROR


def test_register_project_marks_owner(market):
    assert market.org("E").projects == {"p1"}
    assert not market.org("F").projects
    with pytest.raises(LedgerError) as err:     # E's, so no one else's
        market.setup_register_project("F", "p1")
    assert err.value.code is ErrorCode.DUPLICATE_ID
    assert err.value.message == "project 'p1' already registered to 'E'"


def test_copy_keeps_its_own_project_owners(market):
    dup = market.copy()
    dup.setup_register_project("F", "p2")
    assert dup.org("F").projects == {"p2"}
    assert not market.org("F").projects
    market.setup_register_project("E", "p2")    # still free in the original
    assert market.org("E").projects == {"p1", "p2"}
    assert dup.org("E").projects == {"p1"}
    with pytest.raises(LedgerError) as err:     # and still F's in the copy
        dup.setup_register_project("E", "p2")
    assert err.value.code is ErrorCode.DUPLICATE_ID
    assert err.value.message == "project 'p2' already registered to 'F'"

def test_register_project_gates(market):
    # unknown owner
    with pytest.raises(LedgerError) as err:
        market.setup_register_project("Z", "p2")
    assert err.value.code is ErrorCode.UNKNOWN_ORG
    # projects belong to enterprises, not authorities
    with pytest.raises(LedgerError) as err:
        market.setup_register_project("A", "p2")
    assert err.value.code is ErrorCode.UNAUTHORIZED
    # single-owner projects: an id registers once, globally
    with pytest.raises(LedgerError) as err:
        market.setup_register_project("F", "p1")
    assert err.value.code is ErrorCode.DUPLICATE_ID
    # and the happy path
    market.setup_register_project("F", "p2")
    assert market.org("F").projects == {"p2"}


def test_compliance_check_fresh_org(market):
    record = market.org("E")
    assert record.compliant and record.emission == ZERO
    with pytest.raises(LedgerError) as err:
        market.org("Z")
    assert err.value.code is ErrorCode.UNKNOWN_ORG


def test_compliance_check_outstanding_emissions(market):
    driver = LedgerDriver(market)
    driver.mint_permit("A", "E", 100)
    driver.mint_emission("E", "V", 5)
    record = market.org("E")
    assert not record.compliant
    assert record.emission == fx(5)


def test_every_balance_holder_is_registered(driver):
    # balances live on registry records, so any org with a balance is by
    # construction registered; exercise through a mint + transfer
    driver.mint_permit("A", "E", 30)
    driver.transfer_permit("E", "F", 10)
    ledger = driver.ledger
    holders = [rec.id for rec in ledger.registry.values()
               if rec.permit > ZERO or rec.emission > ZERO]
    assert set(holders) <= set(ledger.registry)
    assert ledger.market_permit == fx(30)
