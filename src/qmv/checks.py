"""Pass/fail records shared by the identity-checking modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class IdentityCheck:
    """One verified identity: passes exactly when the canonical difference is zero."""

    name: str
    ok: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


WITNESS_TERMS = 8


def check_zero(name: str, difference) -> IdentityCheck:
    """Build a check from an element or localized element.  The witness is the
    nonzero rest: in full up to WITNESS_TERMS terms, otherwise its first
    WITNESS_TERMS terms in canonical order and its term count."""
    if difference.is_zero():
        return IdentityCheck(name, True)
    return IdentityCheck(name, False, difference.render(WITNESS_TERMS))
