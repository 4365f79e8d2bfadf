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
``homology._HOMOLOGY_CACHE`` (one entry per complex, keyed by its raw
facets, holding its reduced homology groups in every degree, so homology
never canonicalizes),
``obstruction._HEREDITARY_CACHE`` (whether every restriction of a class
satisfies a property, keyed by class and property), and the enumeration
memos:
``enumeration._CORES_MEMO`` holds one entry per scanned (support level, top)
pair, since a bound's top level is scanned for cores only and a larger bound
scans it again as a source level; ``_PAIR_TABLES`` holds one entry per
support level and ``_DIM2_MEMO`` one per vertex bound.  The core scan's
hereditary test reads the other two, one entry per level: ``_HSTAR_RAW``
holds the triangle mask of each vertex set a candidate is restricted to, and
``_HSTAR_CANON`` the triangle masks of every labelled copy of the lower
cores, keyed by level and cores.  Their names are older than their
contents; the benchmark's list of tables still reads them by these names.
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
