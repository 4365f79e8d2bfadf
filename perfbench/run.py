"""Cold-process benchmark for the shellability toolkit.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke

Every sample runs in a fresh interpreter (perfbench/child.py) with
``src`` on its path, so no memo table carries over from one sample to the
next; the child reports the size of every memo table when its job starts and
a non-empty one makes the run incorrect.  Samples run one after another
(closed loop, one client, ``workers=1``) until the next one would end after
``--seconds``.  The answers of every sample are checked here, after the
child has exited, with the checkers in checks.py.

Workloads (why each exists is in BENCHMARK.json):

* ``atlas6``: ``write_atlas(dir, 6)``, the atlas artefact at six vertices.
* ``indcycle8``: ``independence_cycle_report(8)``.
* ``check_corpus``: 120 queries (corpus.py), each deciding all three
  properties with certificates, in one session with a warm memo.  A query
  that runs longer than child.QUERY_LIMIT_S is cut and counts as failed.
  Sample k of an untraced run relabels the corpus with seed 1000 * SEED + k,
  so that a run's latencies average over several labelings; the samples of
  a traced run all use SEED, so that their counts repeat.

End-to-end times are scaled to a host of reference speed.  Each child
times a fixed spin of pure-Python arithmetic before its import and, while an
untraced job runs, once every 20 ms of CPU time (child.py says why).  A time
is the measured one less the spins inside it, multiplied by
REF_SPIN_S / (median of the spins next to it): the spins around the import
scale ``setup_s``; a query's latency, and each stretch of a job between two
spins, is scaled by the spins within SCALE_WINDOW_S of it.  The detail line
keeps the raw times and each job's overall scale factor.

For ``atlas6`` and ``indcycle8`` the operation is the whole job, so the
``query_*`` metrics restate its time; for ``check_corpus`` it is one query.
``query_p50_ms`` and ``query_tail_ms`` are taken over the operations of all
samples of the run.  The tail is the highest percentile that leaves 10
operations of one sample beyond it (the median when a sample has fewer than
11 operations); which percentile that is goes into the detail line.

The last line of standard output is the result object; the line before it
is a detail object with the environment, the spread of every metric over
the samples, and every failed operation.  With ``--trace 1`` traced and
untraced samples alternate: per-layer numbers are medians over the traced
ones, counts come from the first traced one (the detail line says whether
they repeated), and ``trace.overhead_s`` is the difference of the median raw
wall times, less the spins of the untraced samples.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

# name -> (child job, size, smoke size)
WORKLOADS = {
    "atlas6": ("atlas", 6, 6),
    "indcycle8": ("indcycle", 8, 7),
    "check_corpus": ("check_corpus", 120, 30),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
)

_CALLS_SELF = (
    "shelling.is_shellable", "partition.is_partitionable",
    "homology.reduced_homology", "cohen_macaulay.is_sequentially_cm",
    "cohen_macaulay.is_cohen_macaulay", "obstruction.obstruction_report",
    "obstruction.is_hereditary",
)
_SELF_ONLY = (
    "enumeration.triangle_cores", "graphs.independence_cycle_report",
    "catalog.build_entries", "catalog.write_atlas",
)
MEMO_TABLES = (
    "complexes._CANON_CACHE", "shelling._DECIDE_CACHE", "partition._PARTITION_CACHE",
    "homology._HOMOLOGY_CACHE", "cohen_macaulay._CM_CACHE", "enumeration._HSTAR_RAW",
    "enumeration._HSTAR_CANON", "enumeration._CORES_MEMO", "enumeration._DIM2_MEMO",
    "enumeration._PAIR_TABLES",
)
LAYERS = ("complexes", "homology", "shelling", "partition", "cohen_macaulay",
          "obstruction", "enumeration", "graphs", "catalog")

PER_LAYER = (
    (("complexes.canonical_form.calls", "count"), ("complexes.canonical_form.self_s", "s"),
     ("complexes.canonical_form.fills", "count"),
     ("homology.smith_normal_form.calls", "count"), ("homology.smith_normal_form.self_s", "s"),
     ("homology.smith_normal_form.cells", "count"),
     ("enumeration.shelling_calls", "count"), ("enumeration.core_yield", "cores/call"))
    + tuple((f"{t}.{f}", u) for t in _CALLS_SELF for f, u in (("calls", "count"), ("self_s", "s")))
    + tuple((f"{t}.self_s", "s") for t in _SELF_ONLY)
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (("cache.entries", "count"),)
    + tuple((f"cache.{t}.entries", "count") for t in MEMO_TABLES)
    + (("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"))
)

REFERENCE_PATH = HERE / "reference.json"
CHILD_LIMIT_S = 170.0
SETUP_PROBES = 10
# the duration of one child.spin() on the reference host; on the 2-vCPU
# machine the benchmark was built on it took 0.27-0.38 ms
REF_SPIN_S = 0.0003
SCALE_WINDOW_S = 0.25


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, import fails)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _to_reference(spins: list[float]) -> float:
    """The factor that scales a time measured next to these spins to the reference host."""
    return REF_SPIN_S / statistics.median(spins)


class Runner:
    """Spawns children under the checkout root and collects their results."""

    def __init__(self, root: Path, run_started: float):
        self.root = root
        self.run_started = run_started
        self.work = root / ".perfbench_tmp" / str(os.getpid())
        self.count = 0
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, workload: str, size: int, seed: int, trace: bool) -> dict:
        """Run one sample (or an import-only probe) in a fresh interpreter.

        Returns the child's result plus its set-up time, CPU time and peak RSS.
        """
        self.count += 1
        sample_dir = self.work / f"s{self.count}"
        sample_dir.mkdir(parents=True)
        result_path = sample_dir / "result.json"
        stderr_path = sample_dir / "stderr.txt"
        cmd = [sys.executable, str(HERE / "child.py"), workload, str(size), str(seed),
               "1" if trace else "0", str(result_path), str(sample_dir)]
        limit = max(1.0, CHILD_LIMIT_S - (_now() - self.run_started))
        with open(stderr_path, "wb") as err:
            spawned = _now()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            killed = []
            killer = threading.Timer(limit, lambda: killed.append(proc.kill()))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"sample_dir": sample_dir, "returncode": proc.returncode,
               "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if killed:
            out["timeout"] = True
        if killed or proc.returncode != 0 or not result_path.is_file():
            out["error"] = stderr_path.read_text(errors="replace")[-2000:] or f"exit {proc.returncode}"
            return out
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
        out["setup_raw_s"] = out["imported_at"] - spawned - out["spun_before_import_s"]
        out["setup_s"] = out["setup_raw_s"] * _to_reference(out["setup_spins_s"])
        if Path(out["source"]) != (self.root / "src" / "shellability" / "__init__.py").resolve():
            out["error"] = f"imported shellability from {out['source']}, not from this checkout"
        return out


def _tail_fraction(ops_per_sample: int) -> float:
    """The highest quantile that leaves 10 of a sample's operations beyond it."""
    return (ops_per_sample - 10) / ops_per_sample if ops_per_sample >= 11 else 0.5


def _tail(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile, or the median when the fraction is one half."""
    if fraction == 0.5:
        return statistics.median(values)
    xs = sorted(values)
    return xs[max(0, math.ceil(fraction * len(xs)) - 1)]


def _check_sample(workload: str, size: int, seed: int, sample: dict, reference: dict) -> dict:
    """Attempted and failed operations, wrong answers and their descriptions."""
    job = WORKLOADS[workload][0]
    verdict = {"attempted": 1, "failed": 0, "wrong": 0, "problems": [], "failed_ops": []}
    if job == "check_corpus":
        queries = corpus.seeded_corpus(corpus.load_pool(), seed, size)
        verdict["attempted"] = len(queries)
    if "error" in sample:
        verdict["failed"] = verdict["attempted"]
        if sample.get("timeout"):
            verdict["failed_ops"].append(f"sample cut after {CHILD_LIMIT_S} s")
        else:
            verdict["wrong"] = 1
            verdict["problems"].append(f"sample failed: {sample['error']}")
        return verdict
    dirty = {k: v for k, v in sample["memo_at_start"].items() if v}
    if dirty:
        verdict["wrong"] += 1
        verdict["problems"].append(f"memo tables not empty at job start: {dirty}")
    if job == "atlas":
        path = Path(sample["output"]["catalog_path"])
        raw = path.read_bytes()
        sample["catalog_sha256"] = hashlib.sha256(raw).hexdigest()
        expected = reference["atlas"].get(str(size))
        if expected is None:
            problems = [f"no reference fingerprint for atlas size {size}"]
        else:
            problems = checks.check_atlas(json.loads(raw), expected["fingerprint"])
        verdict["problems"] += problems
    elif job == "indcycle":
        verdict["problems"] += checks.check_indcycle(sample["output"]["cases"], size)
    else:
        answers = sample["output"]["answers"]
        for q, answer in zip(queries, answers):
            if answer["status"] != "ok":
                verdict["failed"] += 1
                verdict["failed_ops"].append(f"{q['id']}: {answer['status']} {answer.get('error', '')}".strip())
                if answer["status"] == "error":
                    verdict["wrong"] += 1
                    verdict["problems"].append(f"{q['id']}: raised {answer['error']}")
                continue
            problems = checks.check_query(q["facets"], answer, q["reference"])
            if problems:
                verdict["failed"] += 1
                verdict["wrong"] += 1
                verdict["failed_ops"].append(f"{q['id']}: wrong")
                verdict["problems"] += [f"{q['id']}: {p}" for p in problems]
        if len(answers) != len(queries):
            verdict["wrong"] += 1
            verdict["problems"].append(f"{len(answers)} answers to {len(queries)} queries")
        return verdict
    if verdict["problems"]:
        verdict["failed"] = 1
        verdict["wrong"] = 1
    return verdict


def _job_s(sample: dict) -> float:
    """The job's raw wall time less the spins inside it."""
    return sample["wall_s"] - sample["job_spin_total_s"]


def _local_scale(sample: dict, start: float, end: float) -> float:
    """The reference-host factor for a stretch of a job, from the spins near it."""
    at, spins = sample["job_spin_at_s"], sample["job_spins_s"]
    lo = bisect.bisect_left(at, start - SCALE_WINDOW_S)
    hi = bisect.bisect_right(at, end + SCALE_WINDOW_S)
    return _to_reference(spins[lo:hi] or spins or sample["setup_spins_s"])


def _scaled_job_s(sample: dict) -> float:
    """The job's wall time on the reference host, stretch by stretch between spins."""
    at, spins = sample["job_spin_at_s"], sample["job_spins_s"]
    start = sample["job_started_s"]
    bounds = [start] + at + [start + sample["wall_s"]]
    total = 0.0
    for i in range(len(bounds) - 1):
        stretch = bounds[i + 1] - bounds[i] - (spins[i - 1] if i else 0.0)
        total += stretch * _local_scale(sample, bounds[i], bounds[i + 1])
    return total


def _op_latencies(workload: str, sample: dict) -> list[float]:
    """Reference-host latencies of an untraced sample's operations."""
    if WORKLOADS[workload][0] != "check_corpus":
        return [_scaled_job_s(sample)]
    output = sample["output"]
    return [latency * _local_scale(sample, start, start + latency)
            for start, latency in zip(output["started_s"], output["latencies_s"])]


def _spread(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) > 1 and med:
        out["cv"] = statistics.stdev(values) / statistics.fmean(values)
    return out


def _end_to_end(workload: str, setups: list[float], raw_setups: list[float], ok: list[dict],
                tail: float) -> tuple[dict, dict]:
    series = {
        "setup_s": setups,
        "wall_s": [_scaled_job_s(s) for s in ok],
        "cpu_s": [_scaled_job_s(s) / _job_s(s) * (s["cpu_s"] - s["job_spin_total_s"] - sum(s["setup_spins_s"]))
                  for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
        "queries_per_s": [len(_op_latencies(workload, s)) / _scaled_job_s(s) for s in ok],
        "query_p50_ms": [1000.0 * statistics.median(_op_latencies(workload, s)) for s in ok],
        "query_tail_ms": [1000.0 * _tail(_op_latencies(workload, s), tail) for s in ok],
    }
    metrics = {name: {"value": statistics.median(series[name]) if ok else 0.0, "unit": unit}
               for name, unit in END_TO_END}
    if ok:
        pooled = [x for s in ok for x in _op_latencies(workload, s)]
        metrics["query_p50_ms"]["value"] = 1000.0 * statistics.median(pooled)
        metrics["query_tail_ms"]["value"] = 1000.0 * _tail(pooled, tail)
    series["raw_setup_s"] = raw_setups
    series["raw_wall_s"] = [_job_s(s) for s in ok]
    series["job_scale"] = [_scaled_job_s(s) / _job_s(s) for s in ok]
    return metrics, {name: _spread(values) for name, values in series.items()}


def _layer_value(name: str, sample: dict, absent: set) -> float:
    """One per-layer number from one traced sample."""
    trace = sample["trace"]
    if name.startswith("cache."):
        memo = trace["memo_at_end"]
        if name == "cache.entries":
            return sum(memo.values())
        table = name[len("cache."):-len(".entries")]
        if table not in memo:
            absent.add(name)
        return memo.get(table, 0)
    if name == "trace.wall_s":
        return sample["wall_s"]
    if name == "trace.unattributed_s":
        return trace["unattributed_s"]
    if name in ("enumeration.shelling_calls", "enumeration.core_yield"):
        if name in trace["absent"] or "enumeration.shelling_calls" in trace["absent"]:
            absent.add(name)
        return trace["counters"].get(name, 0)
    head, field = name.rsplit(".", 1)
    if head in trace["layers"] and field == "self_s":
        return trace["layers"][head]
    target = trace["targets"].get(head)
    if target is None or field not in target:
        absent.add(name)
        return 0
    return target[field]


def _per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    absent: set = set()
    metrics = {}
    repeat = True
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [_layer_value(name, s, absent) for s in traced]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            repeat = repeat and all(v == value for v in values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(_job_s(s) for s in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    first = traced[0]["trace"]
    detail = {
        "traced_samples": len(traced),
        "untraced_samples": len(untraced),
        "counts_repeat": repeat,
        "absent": sorted(absent | set(first["absent"])),
        "rebound": first["rebound"],
        "memo_tables_at_end": first["memo_at_end"],
        "layer_self_s_sum": sum(first["layers"].values()),
    }
    return metrics, detail


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
    }


def run(args) -> tuple[dict, dict]:
    root = Path.cwd()
    if not (root / "src" / "shellability" / "__init__.py").is_file():
        raise SetupError(f"no source tree at {root / 'src' / 'shellability'}")
    job, size, smoke_size = WORKLOADS[args.workload]
    if args.smoke:
        size = smoke_size
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    started = _now()
    runner = Runner(root, started)
    try:
        # the first child compiles the bytecode cache; it is not measured
        warm = runner.spawn("probe", 0, args.seed, False)
        if "error" in warm:
            raise SetupError(f"cannot import the package: {warm['error']}")
        setups, raw_setups = [], []
        for _ in range(0 if args.smoke else SETUP_PROBES):
            probe = runner.spawn("probe", 0, args.seed, False)
            if "error" in probe:
                raise SetupError(f"cannot import the package: {probe['error']}")
            setups.append(probe["setup_s"])
            raw_setups.append(probe["setup_raw_s"])

        samples: list[dict] = []
        durations: list[float] = []
        minimum = 2 if args.trace else 1
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 0
            inputs_seed = args.seed if args.trace else 1000 * args.seed + len(samples)
            t0 = _now()
            sample = runner.spawn(job, size, inputs_seed, traced)
            durations.append(_now() - t0)
            sample["traced"] = traced
            sample["verdict"] = _check_sample(args.workload, size, inputs_seed, sample, reference)
            samples.append(sample)
            if "setup_s" in sample:
                setups.append(sample["setup_s"])
                raw_setups.append(sample["setup_raw_s"])
            shutil.rmtree(sample["sample_dir"], ignore_errors=True)
            elapsed = _now() - started
            if "error" in sample:
                break
            # stop where the next sample would end nearer after --seconds than before it
            if len(samples) >= minimum and (args.smoke or elapsed + statistics.median(durations) / 2 > args.seconds):
                break
            if _now() - started + max(durations) > CHILD_LIMIT_S:
                break
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass

    verdicts = [s["verdict"] for s in samples]
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    correct = all(v["wrong"] == 0 for v in verdicts)
    untraced = [s for s in samples if not s["traced"] and "error" not in s]
    traced = [s for s in samples if s["traced"] and "error" not in s]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "samples": len(samples),
        "environment": _environment(),
        "failed_ops": sorted({op for v in verdicts for op in v["failed_ops"]}),
        "problems": [p for v in verdicts for p in v["problems"]][:50],
    }
    tail = 0.5
    if untraced:
        tail = _tail_fraction(len(_op_latencies(args.workload, untraced[0])))
        detail["tail_percentile"] = 100.0 * tail
    shas = sorted({s["catalog_sha256"] for s in samples if "catalog_sha256" in s})
    if shas:
        want = reference["atlas"].get(str(size), {}).get("catalog_sha256")
        detail["catalog_sha256"] = shas
        detail["catalog_bytes_match_reference"] = shas == [want]
    if args.trace:
        if not traced or not untraced:
            metrics = {}
            correct = False
            detail["problems"].append("no traced or no untraced sample completed")
        else:
            metrics, detail["trace"] = _per_layer(traced, untraced)
    else:
        metrics, detail["spread"] = _end_to_end(args.workload, setups, raw_setups, untraced, tail)
        if not untraced:
            correct = False
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one sample (two when tracing) at the smoke size")
    args = parser.parse_args(argv)
    try:
        detail, result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
