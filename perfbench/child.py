"""One measured sample, run in a fresh interpreter by run.py.

Usage: child.py WORKLOAD SIZE SEED TRACE RESULT_PATH WORK_DIR

The child first times a short fixed spin of pure-Python arithmetic a few
times, then imports the package and spins a few times more; the time from
spawn to the end of that import, less the spins before it, is the sample's
set-up time.  The sample then
records the size of every memo table (the parent requires them empty),
optionally installs the tracer, runs the job once and writes what it
measured and what the program answered to RESULT_PATH as JSON.  The parent
checks the answers; nothing here judges them.  WORKLOAD ``probe`` stops
after the import.

The spin gauges the host's speed.  The machine this benchmark was built on
is a virtual one whose vCPUs change speed by up to 40% within tens of
seconds, and a spin's duration tracks the speed of the job around it (a
correlation of 0.88 over 21 cold ``atlas6`` samples).  An untraced job is
therefore interrupted every SPIN_EVERY_S of CPU time to time one spin; the
time spent spinning is reported separately so that the parent can take it
out and scale the rest to a host of reference speed.  Traced jobs do not
spin, so that per-layer self times are the program's alone.
"""

import time


def spin() -> int:
    """Fixed work whose duration measures the speed of the CPU it runs on."""
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
    return x


def timed_spin() -> float:
    t0 = time.perf_counter()
    spin()
    return time.perf_counter() - t0


SETUP_SPINS = [timed_spin() for _ in range(15)]
SPUN_BEFORE_IMPORT = sum(SETUP_SPINS)

import shellability  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
SETUP_SPINS += [timed_spin() for _ in range(15)]

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402

QUERY_LIMIT_S = 10.0
SPIN_EVERY_S = 0.02


class SpinGauge:
    """Times one spin every SPIN_EVERY_S of the process's CPU time."""

    def __init__(self):
        self.at: list[float] = []
        self.spins: list[float] = []
        self.total_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        spin()
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.spins.append(took)
        self.total_s += took

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SPIN_EVERY_S, SPIN_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout


def job_atlas(size: int, seed: int, work_dir: Path) -> dict:
    out = work_dir / "atlas"
    shellability.write_atlas(out, size)
    return {"catalog_path": str(out / "catalog.json")}


def job_indcycle(size: int, seed: int, work_dir: Path) -> dict:
    report = shellability.independence_cycle_report(size)
    cases = [{
        "n": c.n, "dim": c.dim, "ok": c.ok,
        "is_obstruction": c.is_obstruction, "is_strong": c.is_strong,
        "shellable": c.shellable, "partitionable": c.partitionable,
        "sequentially_cm": c.sequentially_cm,
    } for c in report.cases]
    return {"cases": cases}


def _answer(facets: list[int]) -> dict:
    """Decide all three properties with certificates, as ``check --certificate`` does."""
    c = shellability.from_facets(facets)
    sd = shellability.is_shellable(c)
    pd = shellability.is_partitionable(c)
    cd = shellability.is_sequentially_cm(c)
    answer = {"shellable": sd.shellable, "partitionable": pd.partitionable,
              "sequentially_cm": cd.verdict}
    if sd.certificate is not None:
        answer["ordering"] = list(sd.certificate.ordering)
    if pd.certificate is not None:
        answer["intervals"] = [list(pair) for pair in pd.certificate.assignment]
    if cd.witness is not None:
        w = cd.witness
        answer["witness"] = {"skeleton_dim": w.skeleton_dim, "face": w.face,
                             "degree": w.degree, "group": str(w.group)}
    return answer


def job_corpus(size: int, seed: int, work_dir: Path, gauge: SpinGauge,
               queries: list[dict]) -> dict:
    """Latencies exclude the spins that fell inside each query."""
    answers = []
    started = []
    latencies = []
    clock = time.perf_counter
    for q in queries:
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        t0 = clock()
        started.append(t0)
        spun = gauge.total_s
        try:
            answer = _answer(q["facets"])
        except QueryTimeout:
            answer = {"status": "timeout"}
        except Exception as exc:  # a crash in one query must not end the session
            answer = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(clock() - t0 - (gauge.total_s - spun))
        answer.setdefault("status", "ok")
        answers.append(answer)
    return {"answers": answers, "started_s": started, "latencies_s": latencies}


def main(argv: list[str]) -> int:
    workload, size, seed, trace, result_path, work_dir = argv
    size, seed, trace = int(size), int(seed), trace == "1"
    result = {"imported_at": IMPORTED, "spun_before_import_s": SPUN_BEFORE_IMPORT,
              "setup_spins_s": SETUP_SPINS, "source": str(Path(shellability.__file__).resolve()),
              "python": sys.version.split()[0]}
    if workload != "probe":
        gauge = SpinGauge()
        extra = ()
        if workload == "check_corpus":
            signal.signal(signal.SIGALRM, _alarm)
            extra = (gauge, corpus.seeded_corpus(corpus.load_pool(), seed, size))
        job = {"atlas": job_atlas, "indcycle": job_indcycle, "check_corpus": job_corpus}[workload]
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        result["memo_at_start"] = tracing.memo_tables()

        t0 = time.perf_counter()
        if not trace:
            gauge.start()
        result["output"] = job(size, seed, Path(work_dir), *extra)
        gauge.stop()
        result["wall_s"] = time.perf_counter() - t0
        result["job_started_s"] = t0
        result["job_spin_at_s"] = gauge.at
        result["job_spins_s"] = gauge.spins
        result["job_spin_total_s"] = gauge.total_s

        if tracer is not None:
            result["trace"] = tracer.report(result["wall_s"])
            result["trace"]["memo_at_end"] = tracing.memo_tables()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
