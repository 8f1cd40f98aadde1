"""Seeded synthetic scenarios for the carbonmarket benchmark.

``generate(name, seed)`` returns the YAML text of one scenario; the same
workload name and seed always give the same bytes.  The generator keeps its
own exact model of permit and emission balances (a ``tradeToken`` amount is
a token count, so no engine call is needed) and uses it to

* pick only senders that can cover a transfer, burn or sale,
* emit inline ``expect`` steps for org permits, market permit and emission
  totals, and ``compliant``, and
* emit a small share of deliberately over-balance transfers and burns
  marked ``expect_fail: InsufficientBalance`` that exercise the reject path.

Every other step applies.  Run as a script to write a scenario file:

    python3 perfbench/gen.py orgs10-mixed 1 > scenario.yaml
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

SCALE = 10**6          # micro-units per token, as in carbonmarket.fixed
MILLI = 10**3          # generated amounts sit on a 0.001 grid

# share of transaction steps per action; setPrice is the revaluation trigger
MIXED = (("mintPermit", 0.14), ("grantPermit", 0.04), ("transferPermit", 0.34),
         ("tradeToken", 0.20), ("mintEmission", 0.14), ("burnToken", 0.13),
         ("setPrice", 0.01))
REPRICE = (("mintPermit", 0.06), ("grantPermit", 0.02), ("transferPermit", 0.70),
           ("tradeToken", 0.04), ("mintEmission", 0.04), ("burnToken", 0.03),
           ("setPrice", 0.11))


@dataclass(frozen=True)
class Shape:
    orgs: int                     # registered organisations, A and V included
    tx_steps: int                 # transaction steps; expect and expect_fail come on top
    mix: tuple                    # (action, share of tx_steps)
    transfer_milli: tuple         # transfer amount range, in 0.001 tokens
    why: str


WORKLOADS = {
    "orgs1000-mixed": Shape(
        orgs=1000, tx_steps=150, mix=MIXED, transfer_milli=(1_000, 50_000),
        why="1000 orgs, 150 mixed tx: the state digest re-serialises every org per "
            "tx, so run/replay/journal are digest-bound"),
    "orgs10-mixed": Shape(
        orgs=10, tx_steps=1000, mix=MIXED, transfer_milli=(1_000, 50_000),
        why="10 orgs, same mix, 1000 tx: YAML load and fixed per-tx cost dominate; "
            "must not move under digest or revaluation changes"),
    "orgs10-reprice": Shape(
        orgs=10, tx_steps=3000, mix=REPRICE, transfer_milli=(200, 6_000),
        why="10 orgs, 3000 tx, 70% small transfers fragment FIFO lots, 11% setPrice: "
            "journal revaluation re-marks every lot"),
}

DEFAULT_SEED = 1
EXPECT_EVERY = 20      # one expect step per this many transaction steps
FAIL_EVERY = 100       # one expect_fail step per this many transaction steps


def fmt(micro: int) -> str:
    """Exact decimal text of a micro-unit amount, as a scenario expects it."""
    sign = "-" if micro < 0 else ""
    units, frac = divmod(abs(micro), SCALE)
    if frac == 0:
        return f"{sign}{units}"
    return f"{sign}{units}.{frac:06d}".rstrip("0")


class _Model:
    """Exact permit/emission balances and a conservative cash bound."""

    def __init__(self, enterprises: list[str], cash: int):
        self.permit = {org: 0 for org in enterprises}
        self.emission = {org: 0 for org in enterprises}
        self.cash_floor = {org: cash for org in enterprises}
        self.holders: list[str] = []          # orgs with permit > 0, first-credit order
        self.market_permit = 0
        self.market_emission = 0
        self.reserve = 0.0                    # exchange reserve, approximate
        self.price = 0                        # market price, micro

    def credit(self, org: str, micro: int):
        if self.permit[org] == 0:
            self.holders.append(org)
        self.permit[org] += micro

    def debit(self, org: str, micro: int):
        self.permit[org] -= micro
        if self.permit[org] == 0:
            self.holders.remove(org)


def _order(shape: Shape, rng: random.Random) -> list[str]:
    """The transaction kinds in step order.  A few mints come first, so that
    transfers, burns and sales always find a holder; after them each kind is
    spread evenly over the run (one occurrence per stratum, at a random point
    within it), so a seed changes the order but not the load profile."""
    counts = {action: round(share * shape.tx_steps) for action, share in shape.mix}
    warm = min(counts["mintPermit"], max(2, shape.tx_steps // 30))
    counts["mintPermit"] -= warm
    placed = [((j + rng.random()) / count, action)
              for action, count in counts.items() for j in range(count)]
    placed.sort()
    return ["mintPermit"] * warm + [action for _, action in placed]


def generate(name: str, seed: int, shape: Shape | None = None) -> str:
    """Scenario text of workload `name` (or of `shape`, under that name)."""
    shape = shape or WORKLOADS[name]
    rng = random.Random(f"carbonmarket-perfbench/{name}/{seed}")
    enterprises = [f"E{i:04d}" for i in range(1, shape.orgs - 1)]
    owners = enterprises[:max(1, len(enterprises) // 10)]
    cash = 10**7 * SCALE
    model = _Model(enterprises, cash)
    model.price = 20 * SCALE
    model.reserve = 20_000.0

    lines = [
        f"name: perfbench-{name}-seed{seed}",
        f"description: synthetic {name} workload, seed {seed}",
        "genesis:",
        "  orgs:",
        "    - {id: A, role: authority}",
        "    - {id: V, role: verifier}",
    ]
    lines += [f"    - {{id: {org}, role: enterprise, cash: {cash // SCALE}}}"
              for org in enterprises]
    lines.append("  projects:")
    lines += [f"    - {{owner: {org}, project: P{org[1:]}}}" for org in owners]
    lines.append("  exchange: {fraction: 1, supply: 1000, reserve: 20000}")
    lines.append("steps:")

    clock = [0]

    def emit(body: str):
        # zero-padded logical clock: orders as a string, as scenario times must
        clock[0] += 1
        lines.append(f'  - {{time: "t{clock[0]:06d}", {body}}}')

    def amount(lo_milli: int, hi_milli: int) -> int:
        return rng.randint(lo_milli, hi_milli) * MILLI

    def other(org: str) -> str:
        while True:
            pick = rng.choice(enterprises)
            if pick != org:
                return pick

    def mint_permit():
        org, qty = rng.choice(enterprises), amount(50_000, 500_000)
        model.credit(org, qty)
        model.market_permit += qty
        emit(f'action: mintPermit, signer: A, target: {org}, amount: "{fmt(qty)}"')

    def grant_permit():
        org, qty = rng.choice(owners), amount(5_000, 100_000)
        model.credit(org, qty)
        model.market_permit += qty
        emit(f'action: grantPermit, signer: V, target: {org}, amount: "{fmt(qty)}"')

    def transfer_permit():
        sender = rng.choice(model.holders)
        qty = min(model.permit[sender], amount(*shape.transfer_milli))
        target = other(sender)
        model.debit(sender, qty)
        model.credit(target, qty)
        emit(f'action: transferPermit, sender: {sender}, target: {target}, '
             f'amount: "{fmt(qty)}"')

    def burn_token():
        sender = rng.choice(model.holders)
        owed = model.emission[sender]
        qty = min(model.permit[sender], owed if owed else amount(1_000, 10_000))
        retired = min(qty, owed)
        model.debit(sender, qty)
        model.emission[sender] -= retired
        model.market_permit -= qty
        model.market_emission -= retired
        emit(f'action: burnToken, sender: {sender}, amount: "{fmt(qty)}"')

    def mint_emission():
        org, qty = rng.choice(enterprises), amount(1_000, 60_000)
        model.emission[org] += qty
        model.market_emission += qty
        emit(f'action: mintEmission, sender: {org}, signer: V, amount: "{fmt(qty)}"')

    def trade_token():
        # fraction 1: cash = reserve * tokens / supply, booked approximately
        # here; the cash floor only has to stay a safe lower bound
        unit = model.reserve / (model.market_permit / SCALE)
        qty = amount(1_000, 40_000)
        cost = qty / SCALE * unit * 1.01 + 1
        buyer = rng.choice(enterprises)
        buy = rng.random() < 0.6 and model.cash_floor[buyer] > cost * SCALE
        if buy or not model.holders:
            model.cash_floor[buyer] -= int(cost * SCALE) + 1
            model.credit(buyer, qty)
            model.market_permit += qty
            model.reserve += cost
            emit(f'action: tradeToken, sender: {buyer}, amount: "{fmt(qty)}"')
            return
        seller = rng.choice(model.holders)
        qty = min(qty, model.permit[seller])
        model.reserve -= qty / SCALE * unit
        model.debit(seller, qty)
        model.market_permit -= qty
        emit(f'action: tradeToken, sender: {seller}, amount: "-{fmt(qty)}"')

    def set_price():
        new = model.price
        while new == model.price:
            cents = round(model.price * rng.uniform(0.85, 1.15) / 10**4)
            new = min(80 * SCALE, max(5 * SCALE, cents * 10**4))
        model.price = new
        model.reserve = new / SCALE * model.market_permit / SCALE
        emit(f'action: setPrice, authority: A, price: "{fmt(new)}"')

    def expect(turn: int):
        which = turn % 4
        if which == 0:
            org = rng.choice(model.holders or enterprises)
            emit(f'action: expect, org: {org}, field: permit, '
                 f'equals: "{fmt(model.permit[org])}"')
        elif which == 1:
            emit(f'action: expect, market: permit, equals: "{fmt(model.market_permit)}"')
        elif which == 2:
            emit(f'action: expect, market: emission, '
                 f'equals: "{fmt(model.market_emission)}"')
        else:
            org = rng.choice(enterprises)
            compliant = "true" if model.emission[org] == 0 else "false"
            emit(f"action: expect, org: {org}, field: compliant, equals: {compliant}")

    def over_balance(turn: int):
        if not model.holders:
            return
        sender = rng.choice(model.holders)
        qty = fmt(model.permit[sender] + SCALE)
        if turn % 2 == 0:
            emit(f'action: transferPermit, sender: {sender}, target: {other(sender)}, '
                 f'amount: "{qty}", expect_fail: InsufficientBalance')
        else:
            emit(f'action: burnToken, sender: {sender}, amount: "{qty}", '
                 f'expect_fail: InsufficientBalance')

    actions = {"mintPermit": mint_permit, "grantPermit": grant_permit,
               "transferPermit": transfer_permit, "burnToken": burn_token,
               "mintEmission": mint_emission, "tradeToken": trade_token,
               "setPrice": set_price}
    for i, kind in enumerate(_order(shape, rng), start=1):
        if kind in ("transferPermit", "burnToken") and not model.holders:
            kind = "mintPermit"
        actions[kind]()
        if i % EXPECT_EVERY == 0:
            expect(i // EXPECT_EVERY)
        if i % FAIL_EVERY == 0:
            over_balance(i // FAIL_EVERY)
    # close with totals, so a run that drifted anywhere fails at the end
    expect(1)
    expect(2)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{'|'.join(WORKLOADS)}}} SEED")
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2])))
