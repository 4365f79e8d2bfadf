"""The package's memo tables, and the one routine that reads and writes them.

Every module-level memo table is made by ``new_cache()``, which registers it,
and ``clear_all_caches()`` empties every registered table.  ``memo(table,
key, compute, *args)`` is the only way in: it returns the stored value of
``key``, a stored None included, and on a miss computes ``compute(*args)``,
trims the table and stores the value.  So every table is bounded the same
way: when one reaches ``CACHE_LIMIT`` entries, the oldest half of them is
dropped (dict order is insertion order).  Eviction only ever costs
recomputation, never changes a verdict.  The limit is a constant; no
environment variable sets it, and the enumeration tables never come near it.

The deciders other than homology memoize on canonical forms through
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
support level, ``_DIM2_MEMO`` one per vertex bound, and ``_HSTAR_RAW``
whether each raw star removal has no restriction isomorphic to a lower core.
One registered table is not a memo and does not go through ``memo``:
``enumeration._HSTAR_CANON`` holds the lower cores the scan was given (the 9
below seven vertices), grouped by a cheap invariant.  Dropping one of them
would change verdicts, not cost recomputation, so it is never trimmed; it is
registered only so that clearing the caches clears it too.
"""

from __future__ import annotations

CACHE_LIMIT = 1_000_000

_REGISTRY: list[dict] = []
_MISSING = object()


def new_cache() -> dict:
    table: dict = {}
    _REGISTRY.append(table)
    return table


def memo(table: dict, key, compute, *args):
    """``table[key]``, computed as ``compute(*args)`` and stored on a miss."""
    value = table.get(key, _MISSING)
    if value is _MISSING:
        value = compute(*args)
        trim(table)
        table[key] = value
    return value


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
