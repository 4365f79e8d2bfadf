"""The three decidable properties, as one dispatchable enum.

A property is named by its value: ``PropertyKind("shellable")``,
``PropertyKind("partitionable")`` or ``PropertyKind("scm")``.
"""

from __future__ import annotations

from enum import Enum

from .cohen_macaulay import CMReport, is_sequentially_cm
from .complexes import SimplicialComplex
from .partition import PartitionDecision, is_partitionable
from .shelling import ShellingDecision, is_shellable


class PropertyKind(Enum):
    SHELLABLE = "shellable"
    PARTITIONABLE = "partitionable"
    SEQUENTIALLY_CM = "scm"


def decide(c: SimplicialComplex, prop: PropertyKind) -> tuple[bool, ShellingDecision | PartitionDecision | CMReport]:
    """The verdict, with the decider's answer that carries its certificate or witness."""
    if prop is PropertyKind.SHELLABLE:
        decision = is_shellable(c)
        return decision.shellable, decision
    if prop is PropertyKind.PARTITIONABLE:
        decision = is_partitionable(c)
        return decision.partitionable, decision
    if prop is PropertyKind.SEQUENTIALLY_CM:
        report = is_sequentially_cm(c)
        return report.verdict, report
    raise ValueError(f"unknown property {prop!r}")


def satisfies(c: SimplicialComplex, prop: PropertyKind) -> bool:
    return decide(c, prop)[0]
