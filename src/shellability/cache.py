"""The package's memo tables, registered so that one call empties them all.

Every module-level memo table is made by ``new_cache()``, which registers it,
and ``clear_all_caches()`` empties every registered table.  The deciders
memoize on canonical forms through ``complexes.memoized``, so isomorphic
queries (which the restriction/link enumeration produces in bulk) are
answered once; that helper lives in ``complexes``, next to the canonical
labeling, because this module cannot import it without an import cycle.

Every table but the three small enumeration memos is bounded by ``trim``;
``_CORES_MEMO`` and ``_DIM2_MEMO`` hold one entry per vertex bound, and
``_PAIR_TABLES`` one per scanned support level.  When a bounded table
overflows, the oldest half of its entries is dropped (dict order is
insertion order).  Eviction only ever costs recomputation, never changes a
verdict.  The cap is read from ``SHELLABILITY_CACHE_SIZE`` once at import;
set it before importing the package to resize.
"""

from __future__ import annotations

import os

_DEFAULT_LIMIT = 1_000_000


def _limit_from_env() -> int:
    raw = os.environ.get("SHELLABILITY_CACHE_SIZE", "")
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_LIMIT
    return max(value, 1024) if raw else _DEFAULT_LIMIT


CACHE_LIMIT = _limit_from_env()

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
