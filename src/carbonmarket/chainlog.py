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
keys and ASCII-escaped strings (amounts as integer micro-units).

Hashes are SHA-256 (named in the header).  For each entry:

    tx_digest  = H(bytes)
    entry_hash = H(u64be(seq) | tx_digest | state_digest | prev_hash)

with prev_hash of the first entry the all-zero digest.  state_digest commits
to the full ledger state after applying the entry, which is what `replay`
checks against; the genesis line lets a log be replayed self-contained.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import ErrorCode, LedgerError, reject
from .fixed import Fixed
from .ledger import TokenLedger, Transaction, TxKind, parse_state

TX_MAGIC = b"CMTX1"
FORMAT_NAME = "carbonmarket-chainlog"
FORMAT_VERSION = "1"
HASH_NAME = "sha256"
GENESIS_PREV = bytes(32)


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _put_str(out: bytearray, text: str):
    raw = text.encode("utf-8")
    out += struct.pack(">I", len(raw))
    out += raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise reject(ErrorCode.CHAIN_INVALID, "truncated transaction encoding")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def take_str(self) -> str:
        (length,) = struct.unpack(">I", self.take(4))
        return self.take(length).decode("utf-8")

    def done(self) -> bool:
        return self.pos == len(self.data)


def canonical_payload(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def encode_transaction(tx: Transaction) -> bytes:
    out = bytearray(TX_MAGIC)
    out += struct.pack(">Q", tx.seq)
    for text in (tx.time, tx.kind.value, tx.sender, tx.cosigner, tx.target):
        _put_str(out, text)
    if tx.amount is None:
        out += struct.pack(">Bq", 0, 0)
    else:
        out += struct.pack(">Bq", 1, tx.amount.micro)
    _put_str(out, canonical_payload(tx.payload))
    return bytes(out)


def decode_transaction(data: bytes) -> Transaction:
    reader = _Reader(data)
    if reader.take(len(TX_MAGIC)) != TX_MAGIC:
        raise reject(ErrorCode.CHAIN_INVALID, "bad transaction magic")
    try:
        (seq,) = struct.unpack(">Q", reader.take(8))
        time = reader.take_str()
        kind_text = reader.take_str()
        sender = reader.take_str()
        cosigner = reader.take_str()
        target = reader.take_str()
        present, micro = struct.unpack(">Bq", reader.take(9))
        payload_text = reader.take_str()
    except (struct.error, UnicodeDecodeError) as exc:
        raise reject(ErrorCode.CHAIN_INVALID, f"bad transaction encoding: {exc}") from exc
    if not reader.done():
        raise reject(ErrorCode.CHAIN_INVALID, "trailing bytes after transaction")
    try:
        kind = TxKind(kind_text)
    except ValueError as exc:
        raise reject(ErrorCode.CHAIN_INVALID, f"unknown transaction kind {kind_text!r}") from exc
    try:
        payload = json.loads(payload_text)
    except (ValueError, RecursionError) as exc:   # also too deep, or too long a number
        raise reject(ErrorCode.CHAIN_INVALID, f"bad payload json: {exc}") from exc
    if not isinstance(payload, dict) or canonical_payload(payload) != payload_text:
        raise reject(ErrorCode.CHAIN_INVALID, "payload not in canonical form")
    if present not in (0, 1) or (present == 0 and micro != 0):
        raise reject(ErrorCode.CHAIN_INVALID, "bad amount field")
    amount = Fixed(micro) if present else None
    return Transaction(seq=seq, time=time, kind=kind, sender=sender,
                       target=target, cosigner=cosigner, amount=amount,
                       payload=payload)


def entry_hash(seq: int, tx_digest: bytes, state_digest: bytes,
               prev_hash: bytes) -> bytes:
    return _hash(struct.pack(">Q", seq) + tx_digest + state_digest + prev_hash)


@dataclass(frozen=True)
class ChainEntry:
    seq: int
    tx: Transaction
    tx_bytes: bytes
    tx_digest: bytes
    prev_hash: bytes
    state_digest: bytes
    entry_hash: bytes

    def to_line(self) -> str:
        return " ".join((
            str(self.seq),
            self.tx_bytes.hex(),
            self.tx_digest.hex(),
            self.prev_hash.hex(),
            self.state_digest.hex(),
            self.entry_hash.hex(),
        ))


@dataclass(frozen=True)
class VerifyResult:
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
        raise reject(ErrorCode.CHAIN_INVALID, f"bad genesis: {exc.message}") from exc


class ChainLog:
    """Append-only chain anchored at a genesis state snapshot."""

    def __init__(self, genesis_json: str):
        self.genesis_json = genesis_json
        self.genesis_digest = _hash(genesis_json.encode("utf-8"))
        self.genesis_seq = _genesis_seq(genesis_json)
        self.entries: list[ChainEntry] = []

    @classmethod
    def for_ledger(cls, genesis: TokenLedger) -> "ChainLog":
        return cls(genesis.state_json())

    @property
    def head_seq(self) -> int:
        return self.entries[-1].seq if self.entries else self.genesis_seq

    @property
    def head_hash(self) -> bytes:
        return self.entries[-1].entry_hash if self.entries else GENESIS_PREV

    def append(self, tx: Transaction, state_digest: bytes) -> ChainEntry:
        if tx.seq != self.head_seq + 1:
            raise reject(ErrorCode.SEQ_GAP,
                         f"expected seq {self.head_seq + 1}, got {tx.seq}")
        tx_bytes = encode_transaction(tx)
        tx_digest = _hash(tx_bytes)
        prev = self.head_hash
        entry = ChainEntry(seq=tx.seq, tx=tx, tx_bytes=tx_bytes,
                           tx_digest=tx_digest, prev_hash=prev,
                           state_digest=state_digest,
                           entry_hash=entry_hash(tx.seq, tx_digest, state_digest, prev))
        self.entries.append(entry)
        return entry

    # -- text round trip --------------------------------------------------

    def header_line(self) -> str:
        return f"{FORMAT_NAME} {FORMAT_VERSION} {HASH_NAME} {self.genesis_digest.hex()}"

    def to_text(self) -> str:
        lines = [self.header_line(), f"genesis {self.genesis_json}"]
        lines.extend(entry.to_line() for entry in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ChainLog":
        """Strict parse; any structural or cryptographic defect raises
        ChainInvalid.  Use verify_text for a non-raising report."""
        log, problem = _parse_and_check(text)
        if problem is not None:
            raise reject(ErrorCode.CHAIN_INVALID, problem[1])
        return log

    def verify(self) -> VerifyResult:
        return verify_text(self.to_text())


def _canonical_hex(text: str, length: Optional[int] = None) -> bytes:
    """Decode hex, insisting on the canonical lowercase form so that any
    byte-level change to the file is a detectable change."""
    data = bytes.fromhex(text)
    if data.hex() != text:
        raise ValueError(f"non-canonical hex {text[:16]!r}...")
    if length is not None and len(data) != length:
        raise ValueError(f"expected {length} bytes, got {len(data)}")
    return data


def _parse_and_check(text: str) -> tuple[Optional[ChainLog], Optional[tuple[Optional[int], str]]]:
    """Returns (log, None) on success or (partial-or-None, (bad_seq, why))."""
    # split strictly on "\n": splitlines() would also split on \v, \f, and
    # unicode separators, letting a one-bit newline corruption go unnoticed
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return None, (None, "missing header or genesis line")
    header = lines[0].split(" ")
    if len(header) != 4 or header[0] != FORMAT_NAME or header[1] != FORMAT_VERSION:
        return None, (None, f"bad header line: {lines[0]!r}")
    if header[2] != HASH_NAME:
        return None, (None, f"unsupported hash function {header[2]!r}")
    if not lines[1].startswith("genesis "):
        return None, (None, "second line must carry the genesis state")
    genesis_json = lines[1][len("genesis "):]
    try:
        log = ChainLog(genesis_json)
    except LedgerError as exc:
        return None, (None, exc.message)
    try:
        header_digest = _canonical_hex(header[3], 32)
    except ValueError:
        return None, (None, "header genesis digest is not canonical hex")
    if header_digest != log.genesis_digest:
        return None, (None, "genesis state does not match the header digest")

    prev = GENESIS_PREV
    expected_seq = log.genesis_seq + 1
    for line in lines[2:]:
        parts = line.split(" ")
        if len(parts) != 6:
            return log, (expected_seq, f"entry line has {len(parts)} fields, expected 6")
        try:
            seq = int(parts[0])
            if str(seq) != parts[0]:
                raise ValueError(f"non-canonical sequence field {parts[0]!r}")
            tx_bytes = _canonical_hex(parts[1])
            tx_digest = _canonical_hex(parts[2], 32)
            prev_hash = _canonical_hex(parts[3], 32)
            state_digest = _canonical_hex(parts[4], 32)
            ehash = _canonical_hex(parts[5], 32)
        except ValueError as exc:
            return log, (expected_seq, f"unparseable entry fields: {exc}")
        if seq != expected_seq:
            return log, (expected_seq, f"sequence gap: entry claims seq {seq}")
        try:
            tx = decode_transaction(tx_bytes)
        except LedgerError as exc:
            return log, (seq, f"entry {seq}: {exc.message}")
        entry = ChainEntry(seq=seq, tx=tx, tx_bytes=tx_bytes, tx_digest=tx_digest,
                           prev_hash=prev_hash, state_digest=state_digest,
                           entry_hash=ehash)
        problem = _link_problem(entry, prev)
        if problem is not None:
            return log, (seq, problem)
        log.entries.append(entry)
        prev = ehash
        expected_seq += 1
    return log, None


def _link_problem(entry: ChainEntry, prev: bytes) -> Optional[str]:
    """Why `entry` does not belong after the entry hashing to `prev`, or None."""
    seq = entry.seq
    if entry.tx.seq != seq:
        return f"entry {seq}: embedded transaction claims seq {entry.tx.seq}"
    if _hash(entry.tx_bytes) != entry.tx_digest:
        return f"entry {seq}: transaction digest mismatch"
    if entry.prev_hash != prev:
        return f"entry {seq}: broken link to predecessor"
    if entry_hash(seq, entry.tx_digest, entry.state_digest,
                  entry.prev_hash) != entry.entry_hash:
        return f"entry {seq}: entry hash mismatch"
    return None


def _check_links(log: ChainLog):
    """Walk the in-memory entries and raise ChainInvalid at the first one
    that breaks the sequence or the hash chain."""
    prev = GENESIS_PREV
    for expected_seq, entry in enumerate(log.entries, start=log.genesis_seq + 1):
        if entry.seq != expected_seq:
            raise reject(ErrorCode.CHAIN_INVALID,
                         f"sequence gap: entry claims seq {entry.seq}")
        problem = _link_problem(entry, prev)
        if problem is not None:
            raise reject(ErrorCode.CHAIN_INVALID, problem)
        prev = entry.entry_hash


def verify_text(text: str) -> VerifyResult:
    """Check structure, digests, and linkage of a serialized chain log."""
    _, problem = _parse_and_check(text)
    if problem is None:
        return VerifyResult(valid=True)
    bad_seq, detail = problem
    return VerifyResult(valid=False, first_bad_seq=bad_seq, detail=detail)


def replay(log: ChainLog, genesis: Optional[TokenLedger] = None,
           on_event=None) -> TokenLedger:
    """Re-apply every logged transaction and check the recorded digests.

    `genesis` defaults to the state embedded in the log; a caller-supplied
    genesis must hash to the log's recorded genesis digest.  The entries'
    sequence and hash links are checked in memory first; each replayed
    transaction must then reproduce the per-entry state digest bit-exactly.
    """
    _check_links(log)
    if genesis is None:
        ledger = TokenLedger.from_state_json(log.genesis_json)
    else:
        supplied = _hash(genesis.state_json().encode("utf-8"))
        if supplied != log.genesis_digest:
            raise reject(ErrorCode.STATE_MISMATCH,
                         "supplied genesis state does not match the recorded digest")
        ledger = genesis.copy()
    for entry in log.entries:
        try:
            event = ledger.apply(entry.tx)
        except LedgerError as exc:
            raise reject(ErrorCode.STATE_MISMATCH,
                         f"entry {entry.seq} rejected on replay: {exc}") from exc
        if ledger.state_digest() != entry.state_digest:
            raise reject(ErrorCode.STATE_MISMATCH,
                         f"entry {entry.seq}: replayed state digest diverges")
        if on_event is not None:
            on_event(event)
    return ledger
