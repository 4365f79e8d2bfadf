"""The check_corpus workload: a fixed pool of complexes and its seeded relabelings.

The pool holds distinct isomorphism classes on at most nine vertices in three
equal strata (random nonpure, random pure of dimension 2-3, and flag
complexes, i.e. independence complexes of random graphs).  It is drawn once
from GEN_SEED and stored in corpus.json together with the verdicts the
deciders gave when it was drawn.  Every draw is kept; slow inputs are not
filtered out.

A benchmark seed changes neither which classes are queried nor their order
(one from each stratum in turn), only the vertex labels: one seeded
permutation of 0..8 relabels every query.  The raw facet lists (and with
them every memo key that is not a canonical form) differ between seeds,
while the work per query stays the same.  With a warm memo, queries share
subresults, and the first query to need one pays for it.  A seeded order,
or a separate relabeling per query, would change which query pays and
move the median latency between seeds although the total work stays the
same.

Regenerate with ``python3 perfbench/corpus.py`` from the repository root;
this rewrites corpus.json and prints the latency of every query.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PATH = HERE / "corpus.json"
GEN_SEED = 2010
PER_STRATUM = 40
N_MAX = 9
REFERENCE_LIMIT_S = 120.0


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def vertices_of(m: int) -> list[int]:
    return [v for v in range(m.bit_length()) if m >> v & 1]


def maximal_sets(sets: list[int]) -> list[int]:
    """The inclusion-maximal members of a family of vertex masks, sorted."""
    uniq = set(sets)
    return sorted(m for m in uniq if not any(m != o and m & o == m for o in uniq))


def _nonpure(rng: random.Random) -> list[int]:
    n = rng.randint(5, N_MAX)
    return [mask(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(3, 9))]


def _pure(rng: random.Random) -> list[int]:
    n = rng.randint(6, N_MAX)
    d = rng.choice((2, 3))
    k = rng.randint(4, 14)
    facets: set[int] = set()
    while len(facets) < k:
        facets.add(mask(rng.sample(range(n), d + 1)))
    return sorted(facets)


def _flag(rng: random.Random) -> list[int]:
    n = rng.randint(5, N_MAX)
    p = rng.uniform(0.25, 0.6)
    adjacent = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
    independent = [
        m for m in range(1, 1 << n)
        if all(not adjacent[v] & m for v in vertices_of(m))
    ]
    return independent


STRATA = (("nonpure", _nonpure), ("pure", _pure), ("flag", _flag))


def seeded_corpus(pool: list[dict], seed: int, size: int) -> list[dict]:
    """The first size/3 classes of each stratum, taken in turn from each
    stratum, under one seeded vertex relabeling."""
    per = size // len(STRATA)
    strata = [[e for e in pool if e["stratum"] == name][:per] for name, _ in STRATA]
    perm = list(range(N_MAX))
    random.Random(seed).shuffle(perm)
    out = []
    for entry in (e for row in zip(*strata) for e in row):
        facets = sorted(mask(perm[v] for v in vertices_of(f)) for f in entry["facets"])
        out.append({"id": entry["id"], "facets": facets, "reference": entry["reference"]})
    return out


def load_pool() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["pool"]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _draw_pool():
    import shellability as s

    rng = random.Random(GEN_SEED)
    seen = set()
    pool = []
    for name, draw in STRATA:
        kept = 0
        while kept < PER_STRATUM:
            c = s.from_facets(maximal_sets(draw(rng)))
            if c.n_vertices < 3:
                continue
            key = c.canonical_form()
            if key in seen:
                continue
            seen.add(key)
            kept += 1
            pool.append({"id": f"{name}-{kept:03d}", "stratum": name, "facets": list(c.facets)})
    return s, pool


def main() -> int:
    s, pool = _draw_pool()
    signal.signal(signal.SIGALRM, _alarm)
    for entry in pool:
        c = s.from_facets(entry["facets"])
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_LIMIT_S)
        try:
            verdict = [
                s.is_shellable(c).shellable,
                s.is_partitionable(c).partitionable,
                s.is_sequentially_cm(c).verdict,
            ]
        except _Timeout:
            verdict = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        entry["reference"] = verdict
        print(f"{time.perf_counter() - t0:9.4f} s  {entry['id']}  {verdict}", flush=True)
    doc = {
        "generator": {"seed": GEN_SEED, "per_stratum": PER_STRATUM, "n_max": N_MAX,
                      "reference_limit_s": REFERENCE_LIMIT_S},
        "reference_order": ["shellable", "partitionable", "sequentially_cm"],
        "pool": pool,
    }
    CORPUS_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
