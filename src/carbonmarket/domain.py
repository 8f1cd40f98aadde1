"""Core identifiers, roles, and the organisation registry.

Three effective roles exist: authorities, plain enterprises, and enterprises
carrying verifier status.  Verifier is a status flag on an enterprise, not a
third role kind, so an authority can never be a verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ErrorCode, reject
from .fixed import ZERO, Money, Quantity


class RoleKind(Enum):
    AUTHORITY = "authority"
    ENTERPRISE = "enterprise"


ROLE_STRINGS = ("authority", "enterprise", "verifier")


@dataclass(frozen=True)
class Role:
    """Role of a registered organisation; verifier implies enterprise."""

    kind: RoleKind
    verifier: bool = False

    def __post_init__(self):
        if self.kind is RoleKind.AUTHORITY and self.verifier:
            raise ValueError("verifier is a status awarded to an enterprise")

    @property
    def is_authority(self) -> bool:
        return self.kind is RoleKind.AUTHORITY

    @property
    def is_enterprise(self) -> bool:
        return self.kind is RoleKind.ENTERPRISE

    @property
    def is_verifier(self) -> bool:
        return self.kind is RoleKind.ENTERPRISE and self.verifier

    def as_string(self) -> str:
        if self.is_authority:
            return "authority"
        return "verifier" if self.verifier else "enterprise"

    @classmethod
    def from_string(cls, text: str) -> "Role":
        if text == "authority":
            return cls(RoleKind.AUTHORITY)
        if text == "enterprise":
            return cls(RoleKind.ENTERPRISE)
        if text == "verifier":
            return cls(RoleKind.ENTERPRISE, verifier=True)
        raise ValueError(f"unknown role {text!r}; expected one of {ROLE_STRINGS}")


AUTHORITY = Role(RoleKind.AUTHORITY)
ENTERPRISE = Role(RoleKind.ENTERPRISE)
VERIFIER = Role(RoleKind.ENTERPRISE, verifier=True)


@dataclass
class OrgRecord:
    """A registered participant with its balances and project set.

    The emission balance is only ever changed by emission minting and by
    token burning; every other operation leaves it alone.
    """

    id: str
    role: Role
    permit: Quantity = ZERO
    emission: Quantity = ZERO
    cash: Money = ZERO
    projects: set[str] = field(default_factory=set)

    def copy(self) -> "OrgRecord":
        return OrgRecord(self.id, self.role, self.permit, self.emission,
                         self.cash, set(self.projects))


def validate_org_id(org_id: str) -> str:
    if not isinstance(org_id, str) or not org_id:
        raise reject(ErrorCode.SCHEMA_ERROR, "organisation id must be a non-empty string")
    return org_id


@dataclass(frozen=True)
class ComplianceReport:
    """Year-end view of one organisation: compliant iff no outstanding
    (unretired) emissions remain."""

    org: str
    outstanding_emissions: Quantity
    compliant: bool
