"""Tamper-evident, hash-chained append-only transaction log.

One entry per applied transaction; no blocks, no consensus.  The log file is
plain text:

    line 1   header:   carbonmarket-chainlog 1 sha256 <genesis-digest-hex>
    line 2   genesis:  genesis <canonical-state-json>
    line 3+  entries:  <seq> <tx-hex> <tx-digest> <prev-hash> <state-digest> <entry-hash>

Canonical transaction encoding (byte-exact, so independent implementations
hash identically):

    bytes  = MAGIC "CMTX1"
           | u64be(seq)
           | str(time) | str(kind) | str(sender) | str(cosigner) | str(target)
           | u8(amount present: 0 or 1) | i64be(amount in micro-units, 0 if absent)
           | str(payload)

where str(x) = u32be(byte length) followed by UTF-8 bytes, and payload is
the operation's extra fields as minified JSON with lexicographically sorted
keys and ASCII-escaped strings (amounts as integer micro-units); an
operation with no extra fields has the payload `{}`.

Hashes are SHA-256 (named in the header).  For each entry:

    tx_digest  = H(bytes)
    entry_hash = H(u64be(seq) | tx_digest | state_digest | prev_hash)

with prev_hash of the first entry the all-zero digest.  state_digest commits
to the full ledger state after applying the entry, which is what `replay`
checks against; the genesis line lets a log be replayed self-contained.

The format's vocabulary is defined here too, and `ledger` imports it:
`Transaction` and its kinds `TxKind`, the payload encoder `canonical_json`,
and `parse_state`, the header check of a state JSON (`STATE_FORMAT`).  Only
`replay` loads `ledger`, so checking a log loads no state machine.

The writer is the only definition of this format.  A log is valid when its
header and genesis line check out and re-writing each entry from its
transaction and state digest reproduces that line byte for byte: the
transaction bytes must be the encoding of the transaction they decode to,
and every digest and hash is recomputed, never trusted.

Integrity is a property of the text.  In memory a log is its genesis and,
per entry, the transaction and the state digest after it; `text_lines`
alone computes the hashes, chaining them from the all-zero digest, and
`from_text` / `verify_text` check them.  `replay` re-applies each entry's
transaction and requires its logged state digest, for a parsed log and an
in-memory one alike.
"""

from __future__ import annotations

import hashlib
import json
import struct
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .errors import ErrorCode, LedgerError
from .fixed import Fixed, _fixed

if TYPE_CHECKING:       # only `replay` loads the state machine
    from .journal import Journal
    from .ledger import TokenLedger

TX_MAGIC = b"CMTX1"
FORMAT_NAME = "carbonmarket-chainlog"
FORMAT_VERSION = "1"
HASH_NAME = "sha256"
GENESIS_PREV = bytes(32)

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
        raise LedgerError(ErrorCode.SYNTAX_ERROR, f"bad state json: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != STATE_FORMAT:
        raise LedgerError(ErrorCode.SCHEMA_ERROR, "unrecognised state format")
    seq = data.get("seq")
    if type(seq) is not int or not 0 <= seq < 2**64:
        raise LedgerError(ErrorCode.SCHEMA_ERROR, f"bad state seq {repr(seq)[:40]}")
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


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_AMOUNT = struct.Struct(">Bq")
_NO_AMOUNT = _AMOUNT.pack(0, 0)
_AMOUNT_AND_LENGTH = struct.Struct(">BqI")     # the amount fields, then the payload's length
_STRINGS_AT = len(TX_MAGIC) + _U64.size
_KINDS = {kind.value: kind for kind in TxKind}
# a Transaction built straight from a tuple of its fields, in their order,
# skipping the Python-level __new__
_transaction = partial(tuple.__new__, Transaction)


def encode_transaction(tx: Transaction) -> bytes:
    u32 = _U32.pack
    time = tx.time.encode("utf-8")
    kind = tx.kind.value.encode("utf-8")
    sender = tx.sender.encode("utf-8")
    cosigner = tx.cosigner.encode("utf-8")
    target = tx.target.encode("utf-8")
    payload = canonical_json(tx.payload).encode("utf-8") if tx.payload else b"{}"
    return b"".join((
        TX_MAGIC, _U64.pack(tx.seq),
        u32(len(time)), time, u32(len(kind)), kind, u32(len(sender)), sender,
        u32(len(cosigner)), cosigner, u32(len(target)), target,
        _NO_AMOUNT if tx.amount is None else _AMOUNT.pack(1, tx.amount.micro),
        u32(len(payload)), payload))


def decode_transaction(data: bytes) -> Transaction:
    """The transaction `data` encodes.  ChainInvalid unless encoding that
    transaction gives back `data` byte for byte, which rules out a wrong
    magic, truncation, trailing bytes, a bad amount field and a payload not
    in canonical form."""
    u32 = _U32.unpack_from
    try:
        (seq,) = _U64.unpack_from(data, len(TX_MAGIC))
        pos = _STRINGS_AT
        (length,) = u32(data, pos)
        pos += 4 + length
        time = data[pos - length:pos].decode("utf-8")
        (length,) = u32(data, pos)
        pos += 4 + length
        kind_text = data[pos - length:pos].decode("utf-8")
        (length,) = u32(data, pos)
        pos += 4 + length
        sender = data[pos - length:pos].decode("utf-8")
        (length,) = u32(data, pos)
        pos += 4 + length
        cosigner = data[pos - length:pos].decode("utf-8")
        (length,) = u32(data, pos)
        pos += 4 + length
        target = data[pos - length:pos].decode("utf-8")
        present, micro, length = _AMOUNT_AND_LENGTH.unpack_from(data, pos)
        pos += _AMOUNT_AND_LENGTH.size
        payload_text = data[pos:pos + length].decode("utf-8")
        amount = _fixed(micro) if present else None
    except (struct.error, UnicodeDecodeError, OverflowError) as exc:
        raise LedgerError(ErrorCode.CHAIN_INVALID, f"bad transaction encoding: {exc}") from exc
    kind = _KINDS.get(kind_text)
    if kind is None:
        raise LedgerError(ErrorCode.CHAIN_INVALID, f"unknown transaction kind {kind_text!r}")
    try:
        payload = {} if payload_text == "{}" else json.loads(payload_text)
    except (ValueError, RecursionError) as exc:   # also too deep, or too long a number
        raise LedgerError(ErrorCode.CHAIN_INVALID, f"bad payload json: {exc}") from exc
    tx = _transaction((seq, time, kind, sender, target, cosigner, amount, payload))
    try:
        canonical = isinstance(payload, dict) and encode_transaction(tx) == data
    except ValueError:      # a NaN or an infinity, which JSON does not hold
        canonical = False
    if not canonical:
        raise LedgerError(ErrorCode.CHAIN_INVALID, "transaction not in canonical encoding")
    return tx


class ChainEntry(NamedTuple):
    """One logged transaction and the state digest after applying it."""

    tx: Transaction
    state_digest: bytes


_chain_entry = partial(tuple.__new__, ChainEntry)

def _line(prev: bytes, tx: Transaction, tx_bytes: bytes,
          state_digest: bytes) -> tuple[str, bytes]:
    """The entry line for `tx`, encoded as `tx_bytes`, after the entry
    hashing to `prev`, and the line's entry hash."""
    tx_digest = _hash(tx_bytes)
    entry_hash = _hash(_U64.pack(tx.seq) + tx_digest + state_digest + prev)
    return " ".join((str(tx.seq), tx_bytes.hex(), tx_digest.hex(), prev.hex(),
                     state_digest.hex(), entry_hash.hex())), entry_hash


# the entry line's fields, as error messages name them
_FIELDS = ("seq", "tx-hex", "transaction digest", "prev-hash", "state digest",
           "entry hash")


def _mismatch(seq: int, rewritten: str, line: str) -> str:
    """Names the first field of entry `line` that `rewritten` does not reproduce."""
    name = next(name for name, got, want in zip(_FIELDS, rewritten.split(" "), line.split(" "))
                if got != want)
    return f"entry {seq}: {name} mismatch"


class VerifyResult(NamedTuple):
    valid: bool
    first_bad_seq: Optional[int] = None
    detail: str = ""


def _genesis_seq(genesis_json: str) -> int:
    """The genesis state's `seq`; a line that is not a state of this format
    with a u64 `seq` is ChainInvalid.  The rest of the state is checked when
    it is loaded."""
    try:
        return parse_state(genesis_json)[1]
    except LedgerError as exc:
        raise LedgerError(ErrorCode.CHAIN_INVALID, f"bad genesis: {exc.message}") from exc


class ChainLog:
    """Append-only chain anchored at a genesis state snapshot."""

    def __init__(self, genesis_json: str):
        self.genesis_json = genesis_json
        self.genesis_digest = _hash(genesis_json.encode("utf-8"))
        self.genesis_seq = _genesis_seq(genesis_json)
        self.entries: list[ChainEntry] = []

    @property
    def head_seq(self) -> int:
        return self.entries[-1].tx.seq if self.entries else self.genesis_seq

    def append(self, tx: Transaction, state_digest: bytes):
        if tx.seq != self.head_seq + 1:
            raise LedgerError(ErrorCode.SEQ_GAP,
                              f"expected seq {self.head_seq + 1}, got {tx.seq}")
        self.entries.append(_chain_entry((tx, state_digest)))

    # -- text round trip --------------------------------------------------

    def text_lines(self) -> Iterator[str]:
        """The log's text one line at a time, each with its newline: the
        header, the genesis line, then one line per entry.  A writer streams
        these, so no copy of the whole text is ever held."""
        yield f"{FORMAT_NAME} {FORMAT_VERSION} {HASH_NAME} {self.genesis_digest.hex()}\n"
        yield f"genesis {self.genesis_json}\n"
        prev = GENESIS_PREV
        for tx, state_digest in self.entries:
            line, prev = _line(prev, tx, encode_transaction(tx), state_digest)
            yield line + "\n"

    def to_text(self) -> str:
        return "".join(self.text_lines())

    @classmethod
    def from_text(cls, text: str) -> "ChainLog":
        """Strict parse; any structural or cryptographic defect raises
        ChainInvalid.  Use verify_text for a non-raising report."""
        try:
            return _parse_and_check(text)
        except _Defect as defect:
            raise LedgerError(ErrorCode.CHAIN_INVALID, defect.args[1]) from None

    def verify(self) -> VerifyResult:
        """No caller but the benchmark's `perfbench/traced.py`, which wraps
        it; ROADMAP item 5 removes it with that hook."""
        return verify_text(self.to_text())


class _Defect(Exception):
    """The first defect of a log's text; its args are the seq of the entry
    it lies in (None for the header and genesis lines) and what is wrong."""


def _parse_and_check(text: str) -> ChainLog:
    """The log `text` holds, every line checked; else raises `_Defect`."""
    # split strictly on "\n": splitlines() would also split on \v, \f, and
    # unicode separators, letting a one-bit newline corruption go unnoticed
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise _Defect(None, "missing header or genesis line")
    header = lines[0].split(" ")
    if len(header) != 4 or header[0] != FORMAT_NAME or header[1] != FORMAT_VERSION:
        raise _Defect(None, f"bad header line: {lines[0]!r}")
    if header[2] != HASH_NAME:
        raise _Defect(None, f"unsupported hash function {header[2]!r}")
    if not lines[1].startswith("genesis "):
        raise _Defect(None, "second line must carry the genesis state")
    genesis_json = lines[1][len("genesis "):]
    try:
        log = ChainLog(genesis_json)
    except LedgerError as exc:
        raise _Defect(None, exc.message) from exc
    if header[3] != log.genesis_digest.hex():
        raise _Defect(None, "genesis state does not match the header digest")

    prev = GENESIS_PREV
    for seq, line in enumerate(lines[2:], start=log.genesis_seq + 1):
        fields = line.split(" ")
        if len(fields) != 6:
            raise _Defect(seq, f"entry line has {len(fields)} fields, expected 6")
        try:
            tx_bytes = bytes.fromhex(fields[1])
            state_digest = bytes.fromhex(fields[4])
        except ValueError as exc:
            raise _Defect(seq, f"unparseable entry fields: {exc}") from exc
        if len(state_digest) != 32:
            raise _Defect(seq, f"entry {seq}: state digest is not 32 bytes")
        try:
            tx = decode_transaction(tx_bytes)
        except LedgerError as exc:
            raise _Defect(seq, f"entry {seq}: {exc.message}") from exc
        if tx.seq != seq:
            raise _Defect(seq, f"entry {seq}: embedded transaction claims seq {tx.seq}")
        rewritten, prev = _line(prev, tx, tx_bytes, state_digest)
        if rewritten != line:
            raise _Defect(seq, _mismatch(seq, rewritten, line))
        log.entries.append(_chain_entry((tx, state_digest)))
    return log


def verify_text(text: str) -> VerifyResult:
    """Check structure, digests, and linkage of a serialized chain log."""
    try:
        _parse_and_check(text)
    except _Defect as defect:
        bad_seq, detail = defect.args
        return VerifyResult(valid=False, first_bad_seq=bad_seq, detail=detail)
    return VerifyResult(valid=True)


def advance(ledger: TokenLedger, tx: Transaction, log: ChainLog,
            journal: Optional[Journal] = None):
    """Commit `tx` for `run`, `replay` and `journal`: apply it, append the
    state digest past the log's head or else check it against the logged
    one, then book the event; `ledger.seq` moves only if the ledger applied it."""
    event = ledger.apply(tx)
    digest = ledger.state_digest()
    if tx.seq > log.head_seq:
        log.append(tx, digest)
    elif digest != log.entries[tx.seq - log.genesis_seq - 1].state_digest:
        raise LedgerError(ErrorCode.STATE_MISMATCH,
                          f"entry {tx.seq}: replayed state digest diverges")
    if journal is not None:
        journal.on_event(event)


def replay(log: ChainLog, genesis: Optional[TokenLedger] = None,
           journal: Optional[Journal] = None) -> TokenLedger:
    """Re-apply every logged transaction and check the recorded digests.

    The hash chain belongs to the text, which `ChainLog.from_text` checks;
    an in-memory log holds no hashes.  `genesis` defaults to the state
    embedded in the log, and either must re-encode to the recorded genesis
    digest.  Each replayed transaction must then reproduce the per-entry
    state digest bit-exactly, and is booked in `journal` if one is given.
    """
    from .ledger import TokenLedger
    if genesis is None:
        genesis = TokenLedger.from_state_json(log.genesis_json)
    if genesis.state_digest() != log.genesis_digest:
        raise LedgerError(ErrorCode.STATE_MISMATCH,
                          "supplied genesis state does not match the recorded digest")
    ledger = genesis.copy()
    for tx, _ in log.entries:
        try:
            advance(ledger, tx, log, journal)
        except LedgerError as exc:
            if ledger.seq == tx.seq:        # applied: refused by its digest or books
                raise
            raise LedgerError(ErrorCode.STATE_MISMATCH,
                              f"entry {tx.seq} rejected on replay: {exc}") from exc
    return ledger
