"""The types the chain-log format is written in: the transaction record, its
kinds, the canonical JSON encoder, and the header check of a state JSON.

These are the format's own vocabulary, shared by the state machine
(`ledger`) and the log (`chainlog`).  This module does not import
`ledger`, so checking a log loads no state machine.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ErrorCode, reject

if TYPE_CHECKING:
    from .fixed import Fixed

STATE_FORMAT = "carbonmarket-state-1"

# The canonical JSON of the state digest's org fragments and the logged
# payloads: minified, keys sorted, strings ASCII-escaped, and no NaN or
# infinity, which are not JSON (a ValueError).  One encoder, as json.dumps
# with these arguments would build one on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  allow_nan=False).encode


def parse_state(text: str) -> tuple[dict, int]:
    """The JSON object of a state in this format and its `seq`, an int in
    [0, 2^64) so that a transaction encoding's u64 seq can follow it.  Text
    that is not JSON (too deep or too long a number included) is a
    SyntaxError; any other object or seq is a SchemaError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise reject(ErrorCode.SYNTAX_ERROR, f"bad state json: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != STATE_FORMAT:
        raise reject(ErrorCode.SCHEMA_ERROR, "unrecognised state format")
    seq = data.get("seq")
    if type(seq) is not int or not 0 <= seq < 2**64:
        raise reject(ErrorCode.SCHEMA_ERROR, f"bad state seq {repr(seq)[:40]}")
    return data, seq


class TxKind(str, Enum):
    """The logged transaction kinds; each value is a scenario action name."""

    SET_ROLE = "setRole"
    MINT_PERMIT = "mintPermit"
    GRANT_PERMIT = "grantPermit"
    MINT_EMISSION = "mintEmission"
    TRANSFER_PERMIT = "transferPermit"
    BURN_TOKEN = "burnToken"
    TRADE_TOKEN = "tradeToken"
    CONVERT_CASH = "convertCash"
    SET_RESERVE_FRACTION = "setReserveFraction"
    ADJUST_RESERVE = "adjustReserve"
    SET_PRICE = "setPrice"


class Transaction(NamedTuple):
    """Canonical form of one requested operation.

    `sender` is the acting identity (the signer for issuance operations);
    `cosigner` carries the verifier co-signature on emission minting.
    Signatures are honoured as authenticated identities (simulation mode):
    the machine enforces *who* must sign, not how.
    """

    seq: int
    time: str
    kind: TxKind
    sender: str = ""
    target: str = ""
    cosigner: str = ""
    amount: Optional[Fixed] = None
    # one dict shared by every transaction built without a payload; no code
    # mutates a payload, so sharing it is safe
    payload: dict = {}
