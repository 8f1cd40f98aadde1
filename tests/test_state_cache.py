"""The incremental canonical state JSON against a one-pass re-encoding.

The ledger caches each org's JSON fragment and re-encodes only the orgs a
mutation marked stale.  The property below drives it through random
sequences of every transaction kind (rejected ones included), genesis setup
calls, `copy()` and a `from_state_json` round trip, and compares its output
after every step with the whole state encoded from scratch.
"""

import hashlib
import json

from hypothesis import example, given, settings, strategies as st

from carbonmarket import LedgerError, TokenLedger, Transaction, TxKind
from carbonmarket.fixed import Fixed
from carbonmarket.ledger import STATE_FORMAT

from conftest import standard_market

TOKEN = 10**6   # micro-units per token

# text the canonical JSON must escape, so that the oracle checks how the
# ledger writes ids and project ids
ESCAPED = ('"', "\\", "\u00e9", "\x01", "\u2028", "\U0001F600")
# registered at genesis: A, V, E, F; G, Z and the escaped ids exist only
# once registered
IDS = ("A", "V", "E", "F", "G", "Z", "") + ESCAPED
PROJECTS = ("p1", "p2", "p4") + tuple("p" + text for text in ESCAPED)


def oracle_json(ledger: TokenLedger) -> str:
    """The canonical state built in one pass from the registry."""
    exchange = None
    if ledger.exchange is not None:
        exchange = {
            "fraction": ledger.exchange.fraction.micro,
            "reserve": ledger.exchange.reserve.micro,
            "baseline_supply": ledger.exchange.baseline_supply.micro,
            "baseline_reserve": ledger.exchange.baseline_reserve.micro,
        }
    return json.dumps({
        "format": STATE_FORMAT,
        "seq": ledger.seq,
        "market": {
            "permit": ledger.market_permit.micro,
            "emission": ledger.market_emission.micro,
            "price": ledger.market_price.micro,
        },
        "orgs": [{
            "id": rec.id,
            "role": rec.role.value,
            "permit": rec.permit.micro,
            "emission": rec.emission.micro,
            "cash": rec.cash.micro,
            "projects": sorted(rec.projects),
        } for rec in ledger.registry.values()],
        "exchange": exchange,
    }, sort_keys=True, separators=(",", ":"))


org_ids = st.sampled_from(IDS)
roles = st.sampled_from(("authority", "enterprise", "verifier"))
# most amounts stay far inside the 64-bit range; the rest reach trade sizes
# whose curve math overflows, and near-limit sizes (drawn twice as often) whose
# balance, market total or reserve overflows: every handler must reject those
# with the state intact
near_limit = st.sampled_from((2**62, -(2**62), 2**63 - 1))
amounts = st.one_of(st.integers(1, 100 * TOKEN), st.integers(1, 100 * TOKEN),
                    st.integers(-100 * TOKEN, 100 * TOKEN),
                    st.none(), st.sampled_from((10**12, -(10**12), 10**15)),
                    near_limit, near_limit)
fractions = st.sampled_from((0, TOKEN // 100, TOKEN // 4, TOKEN // 2, TOKEN, 3 * TOKEN // 2))
positive = st.integers(1, 10**5 * TOKEN)

payloads = st.fixed_dictionaries({
    "role": st.one_of(roles, st.just("auditor")),
    "fraction": fractions,
    "price": st.one_of(st.integers(0, 1000 * TOKEN), st.just(2**62)),
})

# the org that may sign each kind (A otherwise); half the draws take it, so
# that most transactions get past the gates and the rest probe them
SIGNERS = {TxKind.GRANT_PERMIT: "V", TxKind.MINT_EMISSION: "E",
           TxKind.TRANSFER_PERMIT: "E", TxKind.BURN_TOKEN: "E",
           TxKind.TRADE_TOKEN: "F", TxKind.CONVERT_CASH: "F"}


def _transaction(kind: TxKind):
    return st.tuples(st.just("tx"), st.just(kind),
                     st.one_of(st.just(SIGNERS.get(kind, "A")), org_ids),
                     st.one_of(st.sampled_from(("E", "F", "V", "G")), org_ids),
                     st.one_of(st.just("V"), org_ids), amounts, payloads)


transactions = st.sampled_from(list(TxKind)).flatmap(_transaction)
setups = st.one_of(
    st.tuples(st.just("register_org"), org_ids, roles),
    st.tuples(st.just("register_project"), org_ids, st.sampled_from(PROJECTS)),
    st.tuples(st.just("set_cash"), org_ids, st.integers(-TOKEN, 10**6 * TOKEN)),
    st.tuples(st.just("init_exchange"), fractions, positive, positive),
)
# each step may be followed by a copy or a reload, before its stale marks
# have been consumed by a state_json call
steps = st.tuples(st.integers(0, 7).flatmap(lambda n: setups if n == 0 else transactions),
                  st.sampled_from((None, None, None, "copy", "reload")))


def _run(ledger: TokenLedger, action: tuple):
    name = action[0]
    if name == "tx":
        _, kind, sender, target, cosigner, amount, payload = action
        ledger.apply(Transaction(seq=ledger.seq + 1, time="t", kind=kind,
                                 sender=sender, target=target, cosigner=cosigner,
                                 amount=None if amount is None else Fixed(amount),
                                 payload=payload))
    elif name == "register_org":
        ledger.setup_register_org(action[1], action[2])
    elif name == "register_project":
        ledger.setup_register_project(action[1], action[2])
    elif name == "set_cash":
        ledger.setup_set_cash(action[1], Fixed(action[2]))
    else:
        _, fraction, supply, reserve = action
        ledger.setup_init_exchange(Fixed(fraction), Fixed(supply), Fixed(reserve))


def _check(ledger: TokenLedger) -> str:
    expected = oracle_json(ledger)
    assert ledger.state_json() == expected
    assert ledger.state_digest() == hashlib.sha256(expected.encode("utf-8")).digest()
    return expected


# setRole makes E, owner of project p1, an authority and the state is then
# reloaded: a state after genesis may hold a project of a non-enterprise
@example([(("tx", TxKind.SET_ROLE, "A", "E", "", None, {"role": "authority"}), "reload")],
         False)
# E, owner of p1, registers two project ids that need escaping: its fragment
# writes three, sorted, before and after a reload
@example([(("register_project", "E", "p\U0001F600"), None),
          (("register_project", "E", 'p"'), "reload")], False)
@settings(max_examples=200, deadline=None)
@given(st.lists(steps, max_size=40), st.booleans())
def test_state_json_matches_full_encoding(sequence, exchange):
    ledger = standard_market()
    for seq, holder in enumerate(("E", "F"), start=1):
        ledger.apply(Transaction(seq=seq, time="t", kind=TxKind.MINT_PERMIT, sender="A",
                                 target=holder, amount=Fixed(1000 * TOKEN)))
    if exchange:
        ledger.setup_init_exchange(Fixed(TOKEN // 2), Fixed(2000 * TOKEN),
                                   Fixed(20000 * TOKEN))
    before = _check(ledger)
    detached = []
    for action, after in sequence:
        try:
            _run(ledger, action)
        except LedgerError:
            assert oracle_json(ledger) == before    # a rejection changes nothing
        if after == "copy":
            original = ledger
            ledger = ledger.copy()
            detached.append((original, oracle_json(original)))
        elif after == "reload":
            ledger = TokenLedger.from_state_json(ledger.state_json())
        before = _check(ledger)
    # the copies' later steps left the ledgers they were copied from alone
    for original, expected in detached:
        assert original.state_json() == expected
