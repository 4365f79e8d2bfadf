"""The three decidable properties, as one dispatchable enum.

Shellability implies both partitionability and sequential Cohen-Macaulayness;
that implication order is recorded here as data because the obstruction
machinery and several test suites quantify over it.
"""

from __future__ import annotations

from enum import Enum

from .cohen_macaulay import is_sequentially_cm
from .complexes import SimplicialComplex
from .partition import is_partitionable
from .shelling import is_shellable


class PropertyKind(Enum):
    SHELLABLE = "shellable"
    PARTITIONABLE = "partitionable"
    SEQUENTIALLY_CM = "scm"

    @classmethod
    def from_name(cls, name: str) -> "PropertyKind":
        aliases = {
            "shellable": cls.SHELLABLE,
            "shellability": cls.SHELLABLE,
            "partitionable": cls.PARTITIONABLE,
            "partitionability": cls.PARTITIONABLE,
            "scm": cls.SEQUENTIALLY_CM,
            "sequentially-cm": cls.SEQUENTIALLY_CM,
            "sequentially_cm": cls.SEQUENTIALLY_CM,
        }
        try:
            return aliases[name.lower()]
        except KeyError:
            raise ValueError(f"unknown property {name!r}") from None


IMPLIES: dict[PropertyKind, frozenset[PropertyKind]] = {
    PropertyKind.SHELLABLE: frozenset({PropertyKind.PARTITIONABLE, PropertyKind.SEQUENTIALLY_CM}),
    PropertyKind.PARTITIONABLE: frozenset(),
    PropertyKind.SEQUENTIALLY_CM: frozenset(),
}


def satisfies(c: SimplicialComplex, prop: PropertyKind) -> bool:
    if prop is PropertyKind.SHELLABLE:
        return is_shellable(c).shellable
    if prop is PropertyKind.PARTITIONABLE:
        return is_partitionable(c).partitionable
    return is_sequentially_cm(c).verdict
