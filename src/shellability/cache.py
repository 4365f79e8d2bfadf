"""The package's memo tables, registered so that one call empties them all.

Every module-level memo table is made by ``new_cache()``, which registers it,
and ``clear_all_caches()`` empties every registered table.  The deciders
other than homology memoize on canonical forms through
``complexes.memoized``, so isomorphic queries (which the restriction/link
enumeration produces in bulk) are answered once; that helper lives in
``complexes``, next to the canonical labeling, because this module cannot
import it without an import cycle.

The tables are ``complexes._CANON_CACHE`` (canonical forms by raw facets),
the three decider memos ``shelling._DECIDE_CACHE``,
``partition._PARTITION_CACHE`` and ``cohen_macaulay._CM_CACHE``,
``homology._HOMOLOGY_CACHE`` (reduced homology groups keyed by raw facets
and degree, so homology never canonicalizes),
``obstruction._HEREDITARY_CACHE`` (whether every restriction of a class
satisfies a property, keyed by class and property), and the enumeration
memos:
``enumeration._CORES_MEMO`` and ``_PAIR_TABLES`` hold one entry per scanned
support level, ``_DIM2_MEMO`` one per vertex bound, ``_HSTAR_CANON`` the
lower cores the scan was given (the 9 below seven vertices), grouped by a
cheap invariant, and ``_HSTAR_RAW`` whether each raw star removal has no
restriction isomorphic to one of them.  The enumeration memos other than
``_HSTAR_RAW`` are unbounded; every other table is bounded by ``trim``: when one reaches
``CACHE_LIMIT`` entries, the oldest half of them is dropped (dict order is
insertion order).  Eviction only ever costs recomputation, never changes a
verdict.  The limit is a constant; no environment variable sets it.
"""

from __future__ import annotations

CACHE_LIMIT = 1_000_000

_REGISTRY: list[dict] = []


def new_cache() -> dict:
    table: dict = {}
    _REGISTRY.append(table)
    return table


def trim(table: dict) -> None:
    """Drop the oldest half of an over-full table."""
    if len(table) < CACHE_LIMIT:
        return
    drop = len(table) // 2
    for key in list(table.keys())[:drop]:
        del table[key]


def clear_all_caches() -> None:
    for table in _REGISTRY:
        table.clear()
