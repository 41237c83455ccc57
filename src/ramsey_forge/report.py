"""Structured verdicts shared by the fast checker and the oracle.

The four conditions are evaluated in the fixed order of `CONDITIONS`

    symmetric -> sum_free -> cyclic_basis -> triangle

and evaluation stops at the first failure.  A report therefore stores
only its witness, the first violation found, or None when all four
hold.  The tri-state flags follow from where the witness's condition
sits in that order: True before it, False at it, None (skipped, JSON
null) after it.  `overall` is True exactly when there is no witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

CONDITIONS = ("symmetric", "sum_free", "cyclic_basis", "triangle")


@dataclass(frozen=True)
class Witness:
    """First violation of a condition: which classes, and the smallest
    residue exhibiting the failure (smallest class indices first, then
    smallest residue, so witnesses are deterministic and re-checkable).
    """

    condition: str
    classes: tuple[int, ...]
    residue: int

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "classes": list(self.classes),
            "residue": self.residue,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(d["condition"], tuple(d["classes"]), d["residue"])


def _flag(name: str) -> property:
    i = CONDITIONS.index(name)
    return property(lambda self: self.flags()[i], doc=f"The {name} flag.")


@dataclass(frozen=True)
class CheckReport:
    """A verdict: `CheckReport()` passes all four conditions,
    `CheckReport(w)` fails first at `w.condition`."""

    witness: Witness | None = None

    def __post_init__(self):
        if self.witness is not None and self.witness.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.witness.condition!r}")

    symmetric = _flag("symmetric")
    sum_free = _flag("sum_free")
    cyclic_basis = _flag("cyclic_basis")
    triangle = _flag("triangle")

    @property
    def overall(self) -> bool:
        return self.witness is None

    @property
    def failed_condition(self) -> str | None:
        """Name of the first failing condition, or None when all pass."""
        return None if self.witness is None else self.witness.condition

    def flags(self) -> tuple[bool | None, ...]:
        if self.witness is None:
            return (True,) * len(CONDITIONS)
        i = CONDITIONS.index(self.witness.condition)
        return (True,) * i + (False,) + (None,) * (len(CONDITIONS) - i - 1)

    def to_dict(self) -> dict:
        return {
            **dict(zip(CONDITIONS, self.flags())),
            "witness": None if self.witness is None else self.witness.to_dict(),
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        """The report a `to_dict` document describes; refuses one whose
        flags or `overall` disagree with its witness."""
        w = d.get("witness")
        rep = cls(None if w is None else Witness.from_dict(w))
        stated = tuple(d[c] for c in CONDITIONS) + (d["overall"],)
        if stated != rep.flags() + (rep.overall,):
            raise ValueError(f"flags {stated} disagree with witness {w}")
        return rep
