"""Error codes shared by every module.

Each rejected operation raises :class:`LedgerError` with one code from
:class:`ErrorCode`; reports print the code verbatim so scenario authors can
match on it (e.g. ``expect_fail: InsufficientBalance``).
"""

from __future__ import annotations

from enum import Enum


class ErrorCode(str, Enum):
    # registry / roles
    DUPLICATE_ID = "DuplicateId"
    UNKNOWN_ORG = "UnknownOrg"
    UNAUTHORIZED = "Unauthorized"
    NO_CHANGE = "NoChange"
    NO_PROJECT = "NoProject"
    # amounts and balances
    ZERO_AMOUNT = "ZeroAmount"
    INSUFFICIENT_BALANCE = "InsufficientBalance"
    INSUFFICIENT_CASH = "InsufficientCash"
    RESERVE_EXHAUSTED = "ReserveExhausted"
    INVALID_AMOUNT = "InvalidAmount"
    # exchange parameters
    INVALID_FRACTION = "InvalidFraction"
    INVALID_SUPPLY = "InvalidSupply"
    INVALID_PRICE = "InvalidPrice"
    INVALID_RANGE = "InvalidRange"
    EXCHANGE_INACTIVE = "ExchangeInactive"
    EXCHANGE_ACTIVE = "ExchangeActive"
    # chain log
    SEQ_GAP = "SeqGap"
    CHAIN_INVALID = "ChainInvalid"
    STATE_MISMATCH = "StateMismatch"
    # scenario files
    SYNTAX_ERROR = "SyntaxError"
    SCHEMA_ERROR = "SchemaError"
    REFERENCE_ERROR = "ReferenceError"
    # scenario execution
    ASSERTION_FAILED = "AssertionFailed"
    TRANSACTION_REJECTED = "TransactionRejected"


class LedgerError(Exception):
    """An operation was rejected; state is left untouched."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(f"{code.value}: {message}")
        self.code = code
        self.message = message
