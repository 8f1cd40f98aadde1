"""Core identifiers, roles, and the organisation registry.

Three roles exist: the authority mints allowances, a verifier grants credits
and co-signs emissions, and an enterprise trades and surrenders.  A verifier
is an enterprise too, and an authority is never a verifier.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from .errors import ErrorCode, reject
from .fixed import ZERO, Money, Quantity


class Role(str, Enum):
    """Role of a registered organisation; its value is how it is written."""

    AUTHORITY = "authority"
    ENTERPRISE = "enterprise"
    VERIFIER = "verifier"

    @property
    def is_authority(self) -> bool:
        return self is Role.AUTHORITY

    @property
    def is_enterprise(self) -> bool:
        return self is not Role.AUTHORITY

    @property
    def is_verifier(self) -> bool:
        return self is Role.VERIFIER


ROLE_STRINGS = tuple(role.value for role in Role)


def parse_role(name: Union[Role, str]) -> Role:
    """The role `name` names; any other value is a SchemaError."""
    try:
        return Role(name)
    except ValueError:
        raise reject(ErrorCode.SCHEMA_ERROR,
                     f"unknown role {name!r}; expected one of {ROLE_STRINGS}") from None


class OrgRecord:
    """A registered participant with its balances and project set.

    The emission balance is only ever changed by emission minting and by
    token burning; every other operation leaves it alone.
    """

    __slots__ = ("id", "role", "permit", "emission", "cash", "projects")

    def __init__(self, id: str, role: Role, permit: Quantity = ZERO,
                 emission: Quantity = ZERO, cash: Money = ZERO,
                 projects: Optional[set[str]] = None):
        self.id = id
        self.role = role
        self.permit = permit
        self.emission = emission
        self.cash = cash
        self.projects: set[str] = set() if projects is None else projects

    @property
    def compliant(self) -> bool:
        """The year-end rule: compliant iff every verified emission has been
        retired by a surrendered permit."""
        return self.emission.is_zero

    def copy(self) -> "OrgRecord":
        return OrgRecord(self.id, self.role, self.permit, self.emission,
                         self.cash, set(self.projects))


def validate_id(value: str, what: str) -> str:
    """`value` if it is a non-empty string that encodes as UTF-8, as every
    report and log writes it; a lone surrogate such as JSON's `"\\ud800"`
    does not.  Any other value is a SchemaError naming `what` it is."""
    if not isinstance(value, str) or not value:
        raise reject(ErrorCode.SCHEMA_ERROR, f"{what} must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise reject(ErrorCode.SCHEMA_ERROR,
                     f"{what} {value!r} is not encodable as UTF-8") from None
    return value

