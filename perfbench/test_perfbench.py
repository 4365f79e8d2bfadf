"""Tests of the benchmark itself: its checkers, its tracer and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import shellability as s  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_shelling_checker_accepts_certificate_and_rejects_corruption():
    c = s.from_facets([{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 5}])
    ordering = list(s.is_shellable(c).certificate.ordering)
    assert checks.is_shelling(c.facets, ordering)
    # third triangle before the second: it meets the first in one vertex only
    swapped = [ordering[0], ordering[2], ordering[1]] + ordering[3:]
    assert not s.verify_shelling(c, swapped)[0]
    assert not checks.is_shelling(c.facets, swapped)
    assert not checks.is_shelling(c.facets, ordering[:-1])
    assert not checks.is_shelling(c.facets, ordering + [ordering[0]])


def test_interval_checker_accepts_certificate_and_rejects_overlap():
    c = s.band_complex(2, 6).restriction({0, 1, 2, 3, 4})
    assignment = s.is_partitionable(c).certificate.assignment
    assert checks.is_interval_partition(c.facets, assignment)
    overlapping = [(sigma, 0) for sigma, _ in assignment]
    assert not checks.is_interval_partition(c.facets, overlapping)
    assert not checks.is_interval_partition(c.facets, assignment[1:])


@pytest.fixture(scope="module")
def atlas6_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("atlas")
    s.write_atlas(out, 6)
    return json.loads((out / "catalog.json").read_text(encoding="utf-8"))


def test_fingerprint_matches_reference_and_catches_a_dropped_class(atlas6_doc):
    expected = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))["atlas"]["6"]["fingerprint"]
    assert checks.check_atlas(atlas6_doc, expected) == []
    dropped = dict(atlas6_doc, entries=[e for e in atlas6_doc["entries"] if e["label"] != "1b"])
    problems = checks.check_atlas(dropped, expected)
    assert any(p.startswith("classes_by_dim") for p in problems)
    unlabeled = [e for e in atlas6_doc["entries"] if e["dim"] == 2 and not e["label"]]
    dropped = dict(atlas6_doc, entries=[e for e in atlas6_doc["entries"] if e is not unlabeled[0]])
    assert any(p.startswith("classes_sha256") for p in checks.check_atlas(dropped, expected))


def test_fingerprint_ignores_relabeling(atlas6_doc):
    relabeled = json.loads(json.dumps(atlas6_doc))
    for e in relabeled["entries"]:
        n = e["n_vertices"]
        e["facets"] = sorted(sorted(n - 1 - v for v in f) for f in e["facets"])
    assert checks.atlas_fingerprint(relabeled) == checks.atlas_fingerprint(atlas6_doc)


def test_indcycle_check_catches_a_wrong_case():
    cases = [{"n": c.n, "dim": c.dim, "ok": c.ok, "is_obstruction": c.is_obstruction,
              "is_strong": c.is_strong, "shellable": c.shellable,
              "partitionable": c.partitionable, "sequentially_cm": c.sequentially_cm}
             for c in s.independence_cycle_report(6).cases]
    assert checks.check_indcycle(cases, 6) == []
    cases[1]["is_strong"] = True
    assert checks.check_indcycle(cases, 6)


def test_seeded_corpus_is_deterministic_and_relabels():
    pool = corpus.load_pool()
    a, b, c = (corpus.seeded_corpus(pool, seed, 30) for seed in (1, 1, 2))
    assert a == b
    assert [q["id"] for q in a] == [q["id"] for q in c]
    assert [q["facets"] for q in a] != [q["facets"] for q in c]
    assert sum(q["id"].startswith("flag") for q in a) == 10


def test_tracer_rebinds_every_importer_and_reports_absent_targets():
    code = """
import shellability, shellability.cli
from shellability import enumeration, graphs, properties, cli
import tracing
original = shellability.shelling.is_shellable
t = tracing.Tracer()
t.install(tracing.TARGETS + (("shelling", "no_such_function"), ("no_such_module", "f")))
for mod in (shellability, shellability.shelling, properties, graphs, cli):
    assert mod.is_shellable is not original and mod.is_shellable.__wrapped__ is original, mod
assert enumeration.is_shellable is not original
assert {"shelling.no_such_function", "no_such_module.f"} <= set(t.absent)
c = shellability.from_facets([{0, 1, 2}, {2, 3, 4}])
assert properties.satisfies(c, properties.PropertyKind.SHELLABLE) is False
report = t.report(1.0)
assert report["targets"]["shelling.is_shellable"]["calls"] == 1
"""
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_times_scale_to_the_reference_host():
    ref = run.REF_SPIN_S
    # a 1 s job that spun three times, each spin taking twice the reference time
    sample = {"job_started_s": 10.0, "wall_s": 1.0, "job_spin_total_s": 6 * ref,
              "job_spin_at_s": [10.2, 10.5, 10.8], "job_spins_s": [2 * ref] * 3,
              "setup_spins_s": [ref]}
    assert run._job_s(sample) == pytest.approx(1.0 - 6 * ref)
    assert run._scaled_job_s(sample) == pytest.approx((1.0 - 6 * ref) / 2)
    # a query far from every spin but one is scaled by that spin alone
    sample["job_spins_s"] = [ref, 2 * ref, 4 * ref]
    sample["output"] = {"started_s": [10.78], "latencies_s": [0.01]}
    assert run._op_latencies("check_corpus", sample) == [pytest.approx(0.0025)]


def test_benchmark_json_lists_what_the_harness_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]


def test_traced_smoke_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "indcycle8",
                           "--smoke", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"], proc.stdout
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["trace"]["counts_repeat"] and detail["trace"]["absent"] == []


def test_refuses_a_checkout_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "atlas6", "--seed", "1",
                           "--seconds", "5", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
