"""State machine behaviour: gates, conservation, atomicity, determinism."""

import json
import random

import pytest

from carbonmarket import (ErrorCode, Fixed, LedgerError, TokenLedger,
                          Transaction, TxKind)
from carbonmarket.exchange import spot_price
from carbonmarket.fixed import ZERO

from conftest import LedgerDriver, fx, standard_market


def spot(ledger: TokenLedger) -> Fixed:
    """The exchange's spot price at the outstanding permit supply."""
    return spot_price(ledger.exchange, ledger.market_permit)


def reject_code(driver, *args, **kwargs) -> ErrorCode:
    with pytest.raises(LedgerError) as err:
        driver.apply(*args, **kwargs)
    return err.value.code


# -- setRole ----------------------------------------------------------------

def test_set_role_promotes_to_verifier(driver):
    driver.set_role("A", "E", "verifier")
    assert driver.ledger.org("E").role.is_verifier


def test_set_role_same_role_is_no_change(driver):
    with pytest.raises(LedgerError) as err:
        driver.set_role("A", "V", "verifier")
    assert err.value.code is ErrorCode.NO_CHANGE


def test_set_role_requires_authority(driver):
    with pytest.raises(LedgerError) as err:
        driver.set_role("E", "F", "verifier")
    assert err.value.code is ErrorCode.UNAUTHORIZED


def test_set_role_demotion_clears_verifier_status(driver):
    driver.set_role("A", "V", "enterprise")
    role = driver.ledger.org("V").role
    assert role.is_enterprise and not role.is_verifier


def test_set_role_unknown_target(driver):
    with pytest.raises(LedgerError) as err:
        driver.set_role("A", "Z", "verifier")
    assert err.value.code is ErrorCode.UNKNOWN_ORG


# -- mintPermit ---------------------------------------------------------------

def test_mint_permit_credits_target_and_market(driver):
    driver.mint_permit("A", "E", 100)
    assert driver.ledger.org("E").permit == fx(100)
    assert driver.ledger.market_permit == fx(100)


def test_mint_permit_only_authority(driver):
    with pytest.raises(LedgerError) as err:
        driver.mint_permit("V", "E", 10)
    assert err.value.code is ErrorCode.UNAUTHORIZED


def test_mint_permit_zero_amount(driver):
    # oracle: replaying the issuance algorithm with amount 0 changes no
    # balance; the machine rejects such a vacuous request outright
    before = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        driver.mint_permit("A", "E", 0)
    assert err.value.code is ErrorCode.ZERO_AMOUNT
    assert driver.ledger.state_json() == before


# -- grantPermit ---------------------------------------------------------------

def test_grant_permit_requires_project(driver):
    driver.grant_permit("V", "E", 40)
    assert driver.ledger.org("E").permit == fx(40)
    with pytest.raises(LedgerError) as err:
        driver.grant_permit("V", "F", 5)
    assert err.value.code is ErrorCode.NO_PROJECT


def test_grant_permit_requires_verifier(driver):
    with pytest.raises(LedgerError) as err:
        driver.grant_permit("E", "E", 5)
    assert err.value.code is ErrorCode.UNAUTHORIZED


# -- mintEmission -----------------------------------------------------------------

def test_mint_emission_accumulates(driver):
    driver.mint_emission("E", "V", 55)
    assert driver.ledger.org("E").emission == fx(55)
    driver.mint_emission("E", "V", 70)
    assert driver.ledger.org("E").emission == fx(125)
    assert driver.ledger.market_emission == fx(125)


def test_mint_emission_requires_verifier_cosigner(driver):
    with pytest.raises(LedgerError) as err:
        driver.mint_emission("E", "F", 10)
    assert err.value.code is ErrorCode.UNAUTHORIZED


def test_mint_emission_sender_must_be_enterprise(driver):
    with pytest.raises(LedgerError) as err:
        driver.mint_emission("A", "V", 10)
    assert err.value.code is ErrorCode.UNAUTHORIZED


def test_verifier_may_self_verify(driver):
    # not forbidden by any gate; flagged for callers rather than rejected
    driver.mint_emission("V", "V", 5)
    assert driver.ledger.org("V").emission == fx(5)


# -- transferPermit ---------------------------------------------------------------

def test_transfer_moves_balance_not_market(driver):
    driver.mint_permit("A", "E", 140)
    before = driver.ledger.market_permit
    driver.transfer_permit("E", "F", 10)
    assert driver.ledger.org("E").permit == fx(130)
    assert driver.ledger.org("F").permit == fx(10)
    assert driver.ledger.market_permit == before
    driver.transfer_permit("E", "E", 10)        # a self-transfer moves nothing
    assert driver.ledger.org("E").permit == fx(130)


def test_transfer_insufficient_balance(driver):
    driver.mint_permit("A", "E", 5)
    with pytest.raises(LedgerError) as err:
        driver.transfer_permit("E", "F", 6)
    assert err.value.code is ErrorCode.INSUFFICIENT_BALANCE


# -- burnToken -----------------------------------------------------------------------

def burn_reference(permit: int, emission: int, amount: int):
    """Direct simulation of the surrender branches: emissions are retired
    first; burning beyond them is voluntary surrender."""
    if amount > permit:
        return None
    if emission >= amount:
        emission -= amount
    else:
        emission = 0
    return permit - amount, emission


@pytest.mark.parametrize("permit,emission,amount,expected", [
    (125, 125, 125, (0, 0)),
    (50, 30, 50, (0, 0)),    # voluntary surrender of 20
    (50, 80, 50, (0, 30)),
    (10, 0, 7, (3, 0)),      # pure voluntary surrender
])
def test_burn_matches_reference(driver, permit, emission, amount, expected):
    assert burn_reference(permit, emission, amount) == expected
    driver.mint_permit("A", "E", permit)
    if emission:
        driver.mint_emission("E", "V", emission)
    driver.burn_token("E", amount)
    record = driver.ledger.org("E")
    assert (record.permit, record.emission) == (fx(expected[0]), fx(expected[1]))


def test_burn_never_negative(driver):
    driver.mint_permit("A", "E", 10)
    with pytest.raises(LedgerError) as err:
        driver.burn_token("E", 11)
    assert err.value.code is ErrorCode.INSUFFICIENT_BALANCE
    driver.burn_token("E", 10)
    assert driver.ledger.org("E").permit == ZERO
    assert driver.ledger.market_permit == ZERO


def test_burn_event_reports_retirement_split(driver):
    driver.mint_permit("A", "E", 50)
    driver.mint_emission("E", "V", 30)
    event = driver.burn_token("E", 50)
    assert event.retired == fx(30)
    assert event.tx.amount - event.retired == fx(20)   # surrendered voluntarily
    assert driver.ledger.market_emission == ZERO


# -- sequencing and atomicity ------------------------------------------------------

def test_seq_must_be_dense(market):
    tx = Transaction(seq=5, time="t", kind=TxKind.MINT_PERMIT, sender="A",
                     target="E", amount=fx(1))
    with pytest.raises(LedgerError) as err:
        market.apply(tx)
    assert err.value.code is ErrorCode.SEQ_GAP


def test_failed_transaction_leaves_state_untouched(driver):
    driver.mint_permit("A", "E", 10)
    driver.init_exchange("0.5", 10, 200)
    snapshot = driver.ledger.state_json()
    failures = [
        dict(kind=TxKind.MINT_PERMIT, sender="E", target="F", amount=5),
        dict(kind=TxKind.TRANSFER_PERMIT, sender="E", target="F", amount=999),
        dict(kind=TxKind.TRADE_TOKEN, sender="F", amount=-3),
        dict(kind=TxKind.CONVERT_CASH, sender="F", amount="-10000000"),
        dict(kind=TxKind.SET_ROLE, sender="A", target="E", role="enterprise"),
        dict(kind=TxKind.ADJUST_RESERVE, sender="A", amount="-200"),
    ]
    for kwargs in failures:
        with pytest.raises(LedgerError):
            driver.apply(**kwargs)
        assert driver.ledger.state_json() == snapshot
        assert driver.ledger.seq == 1


BIG = Fixed(2**62)


@pytest.mark.parametrize("first, second", [
    (lambda d: d.mint_permit("A", "E", BIG), lambda d: d.mint_permit("A", "F", BIG)),
    (lambda d: d.mint_permit("A", "F", BIG), lambda d: d.grant_permit("V", "E", BIG)),
    (lambda d: d.mint_emission("E", "V", BIG), lambda d: d.mint_emission("F", "V", BIG)),
    (lambda d: d.mint_permit("A", "E", 10), lambda d: d.set_price("A", BIG)),
], ids=["mintPermit", "grantPermit", "mintEmission", "setPrice"])
def test_overflow_is_rejected_atomically(driver, first, second):
    # the second transaction's own balance would fit the 64-bit range; the
    # market total, or the reserve re-tuned to the new price, would not
    driver.init_exchange("0.5", 1000, 10000)
    first(driver)
    snapshot = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        second(driver)
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert driver.ledger.state_json() == snapshot
    assert driver.ledger.seq == 1


# -- conservation and replay determinism ----------------------------------------------

OPS = ("mint", "grant", "emit", "transfer", "burn", "trade", "convert")


def random_walk(driver: LedgerDriver, rng: random.Random, steps: int):
    """Apply `steps` random valid operations; invalid draws are skipped."""
    orgs = ("E", "F", "V")
    for _ in range(steps):
        op = rng.choice(OPS)
        try:
            if op == "mint":
                driver.mint_permit("A", rng.choice(orgs), rng.randint(1, 50))
            elif op == "grant":
                driver.grant_permit("V", "E", rng.randint(1, 30))
            elif op == "emit":
                driver.mint_emission(rng.choice(("E", "F")), "V", rng.randint(1, 40))
            elif op == "transfer":
                sender, target = rng.sample(orgs, 2)
                driver.transfer_permit(sender, target, rng.randint(1, 20))
            elif op == "burn":
                driver.burn_token(rng.choice(orgs), rng.randint(1, 25))
            elif op == "trade":
                driver.trade_token("E", rng.choice((1, 2, 5, -1, -3)))
            elif op == "convert":
                driver.convert_cash("F", rng.choice((10, 50, -5, -20)))
        except LedgerError:
            continue


def assert_conservation(ledger: TokenLedger):
    permits = ZERO
    emissions = ZERO
    for record in ledger.registry.values():
        permits += record.permit
        emissions += record.emission
    assert permits == ledger.market_permit
    assert emissions == ledger.market_emission


def test_random_walk_preserves_totals():
    rng = random.Random(1234)
    for round_no in range(50):
        driver = LedgerDriver(standard_market())
        driver.mint_permit("A", "E", 500)
        driver.init_exchange("0.5", 500, 10000)
        random_walk(driver, rng, 40)
        assert_conservation(driver.ledger)


def test_market_totals_move_only_through_designated_ops(driver):
    ledger = driver.ledger
    driver.init_exchange("1", 1000, 20000)

    driver.mint_permit("A", "E", 40)            # permit total up
    assert ledger.market_permit == fx(40)
    driver.grant_permit("V", "E", 10)           # permit total up
    assert ledger.market_permit == fx(50)
    driver.transfer_permit("E", "F", 5)         # neither total moves
    assert ledger.market_permit == fx(50)
    driver.set_role("A", "F", "verifier")       # neither total moves
    driver.set_price("A", 25)
    assert (ledger.market_permit, ledger.market_emission) == (fx(50), ZERO)
    driver.mint_emission("E", "V", 20)          # emission total up
    assert ledger.market_emission == fx(20)
    driver.trade_token("E", 3)                  # permit total via exchange
    assert ledger.market_permit == fx(53)
    driver.burn_token("E", 30)                  # both totals down
    assert ledger.market_permit == fx(23)
    assert ledger.market_emission == ZERO


def test_replay_is_bit_identical(driver):
    driver.init_exchange("0.5", 500, 10000)
    replayed = driver.ledger.copy()
    driver.mint_permit("A", "E", 500)
    random_walk(driver, random.Random(42), 60)
    digest = driver.ledger.state_digest()

    for event in driver.events:
        replayed.apply(event.tx)
    assert replayed.state_digest() == digest
    assert replayed.state_json() == driver.ledger.state_json()


# -- role x operation rejection matrix -------------------------------------------------

ROLE_GATED = {
    "setRole": {"authority"},
    "mintPermit": {"authority"},
    "grantPermit": {"verifier"},
    "mintEmissionCosigner": {"verifier"},
    "setReserveFraction": {"authority"},
    "adjustReserve": {"authority"},
    "setPrice": {"authority"},
}

CALLERS = {"authority": "A", "enterprise": "E", "verifier": "V"}


def _invoke(op: str, caller: str):
    driver = LedgerDriver(standard_market())
    driver.mint_permit("A", "F", 100)
    driver.init_exchange("0.5", 100, 2000)
    if op == "setRole":
        driver.set_role(caller, "F", "verifier")
    elif op == "mintPermit":
        driver.mint_permit(caller, "F", 10)
    elif op == "grantPermit":
        driver.grant_permit(caller, "E", 10)
    elif op == "mintEmissionCosigner":
        driver.mint_emission("F", caller, 10)
    elif op == "setReserveFraction":
        driver.set_reserve_fraction(caller, "0.25")
    elif op == "adjustReserve":
        driver.adjust_reserve(caller, 100)
    elif op == "setPrice":
        driver.set_price(caller, 30)


def test_rejection_matrix_exhaustive():
    for op, allowed in ROLE_GATED.items():
        for role, caller in CALLERS.items():
            if role in allowed:
                _invoke(op, caller)  # must not raise
            else:
                with pytest.raises(LedgerError) as err:
                    _invoke(op, caller)
                assert err.value.code is ErrorCode.UNAUTHORIZED, (op, role)


def test_ungated_operations_open_to_every_role():
    # transfer, burn, and both trade directions carry no role gate
    for caller in CALLERS.values():
        driver = LedgerDriver(standard_market())
        driver.ledger.setup_set_cash(caller, fx(100000))
        driver.mint_permit("A", caller, 100)
        driver.init_exchange("1", 100, 2000)
        driver.transfer_permit(caller, "F", 10)
        driver.burn_token(caller, 10)
        driver.trade_token(caller, 5)
        driver.convert_cash(caller, -20)


# -- market adjustment levers -------------------------------------------------------

def test_set_reserve_fraction_rebases_and_reprices(driver):
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    assert spot(driver.ledger) == fx(20)
    driver.set_reserve_fraction("A", "0.25")
    assert spot(driver.ledger) == fx(40)
    ex = driver.ledger.exchange
    assert ex.baseline_supply == fx(1000)
    assert ex.baseline_reserve == fx(10000)


def test_set_reserve_fraction_identity(driver):
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    driver.set_reserve_fraction("A", "0.5")
    assert spot(driver.ledger) == fx(20)


def test_set_reserve_fraction_bounds(driver):
    driver.init_exchange("0.5", 1000, 10000)
    for bad in ("0", "1.5", "-0.2"):
        with pytest.raises(LedgerError) as err:
            driver.set_reserve_fraction("A", bad)
        assert err.value.code is ErrorCode.INVALID_FRACTION


def test_adjust_reserve_scales_price(driver):
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    driver.adjust_reserve("A", 10000)
    assert spot(driver.ledger) == fx(40)


def test_adjust_reserve_zero_is_identity(driver):
    driver.mint_permit("A", "E", 1000)
    driver.init_exchange("0.5", 1000, 10000)
    before = json.loads(driver.ledger.state_json())
    driver.adjust_reserve("A", 0)
    after = json.loads(driver.ledger.state_json())
    before.pop("seq"), after.pop("seq")
    assert before == after


def test_adjust_reserve_cannot_exhaust(driver):
    driver.init_exchange("0.5", 1000, 10000)
    with pytest.raises(LedgerError) as err:
        driver.adjust_reserve("A", -10000)
    assert err.value.code is ErrorCode.RESERVE_EXHAUSTED


def test_exchange_bootstrap_gates(driver):
    with pytest.raises(LedgerError) as err:
        driver.trade_token("E", 5)
    assert err.value.code is ErrorCode.EXCHANGE_INACTIVE
    driver.init_exchange("0.5", 1000, 10000)
    with pytest.raises(LedgerError) as err:
        driver.init_exchange("0.5", 1000, 10000)
    assert err.value.code is ErrorCode.EXCHANGE_ACTIVE


def test_set_price_reanchors_exchange(driver):
    driver.mint_permit("A", "E", 140)
    driver.init_exchange("1", 1000, 20000)
    assert driver.ledger.market_price == fx(20)
    driver.set_price("A", 24)
    assert driver.ledger.market_price == fx(24)
    assert driver.ledger.exchange.reserve == fx(24 * 140)
    assert spot(driver.ledger) == fx(24)
    with pytest.raises(LedgerError) as err:
        driver.set_price("A", 0)
    assert err.value.code is ErrorCode.INVALID_PRICE


def test_trade_beyond_the_curve_is_rejected_atomically(driver):
    driver.mint_permit("A", "E", 1)
    driver.init_exchange("0.01", 1, 1)
    before = driver.ledger.state_json()
    with pytest.raises(LedgerError) as err:
        driver.trade_token("E", 1000000)
    assert err.value.code is ErrorCode.INVALID_AMOUNT
    assert driver.ledger.state_json() == before


@pytest.mark.parametrize("corrupt", [
    lambda state: state["orgs"].append(dict(state["orgs"][0])),   # repeated id
    lambda state: state["orgs"][0].update(id=""),                  # empty id
    lambda state: state["orgs"][0].update(cash=2**64),             # beyond 64 bits
])
def test_state_json_with_bad_org_is_a_schema_error(corrupt):
    state = json.loads(standard_market().state_json())
    corrupt(state)
    with pytest.raises(LedgerError) as err:
        TokenLedger.from_state_json(json.dumps(state))
    assert err.value.code is ErrorCode.SCHEMA_ERROR


def test_state_json_with_unknown_role_is_a_schema_error():
    state = json.loads(standard_market().state_json())
    state["orgs"][0]["role"] = "emperor"
    with pytest.raises(LedgerError) as err:
        TokenLedger.from_state_json(json.dumps(state))
    assert (err.value.code, err.value.message) == (
        ErrorCode.SCHEMA_ERROR, "bad state org: unknown role 'emperor'; "
                                "expected one of ('authority', 'enterprise', 'verifier')")


def test_loaded_state_keeps_a_project_whose_owner_changed_role(driver):
    # after genesis, setRole may leave a project with an authority; only a
    # genesis state (seq 0) must have its projects owned by enterprises
    driver.set_role("A", "E", "authority")
    state = driver.ledger.state_json()
    reloaded = TokenLedger.from_state_json(state)
    assert reloaded.state_json() == state
    assert reloaded.org("E").projects == {"p1"}
    with pytest.raises(LedgerError) as err:     # still E's after the reload
        reloaded.setup_register_project("F", "p1")
    assert err.value.code is ErrorCode.DUPLICATE_ID
    genesis = json.loads(state)
    genesis["seq"] = 0
    with pytest.raises(LedgerError) as err:
        TokenLedger.from_state_json(json.dumps(genesis))
    assert err.value.code is ErrorCode.SCHEMA_ERROR
    assert err.value.message == "bad state org: projects are owned by enterprises"
