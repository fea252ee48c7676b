"""Benchmark of the random-key ensemble on deterministic workloads.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload tdtsp-population --seed 1 \\
        --seconds 30 --trace 0

The seed generates the instances and the search seeds (see
``workloads.py``).  The workload's set-up and its round of
``run_ensemble`` calls are repeated while the next round is expected
to end within ``--seconds``.  The first round goes through the
correctness gate and every later round must reproduce its reports
exactly.  Timings are medians over rounds; costs and counts come from
one round and repeat exactly for a given seed.  Set-up and runs are
timed in CPU seconds corrected for the host's speed at the moment (see
``hostspeed.py``); the run prints the median correction factor, by
which a corrected time was multiplied.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate, and the run prints
the per-layer metrics of the traced rounds, the tracing overhead and
isolated per-call kernel timings.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when a result fails the gate.
Each metric's unit is the one ``BENCHMARK.json`` declares for it.

On ``tdtsp-ttt`` a run's target is the brute-force optimum.  On the
fixed-budget workloads it is the end of the call budget, so the
``ttt_*`` metrics there are per-run seconds and calls, and
``ttt_calls_p50`` is the budget itself.
``ttt_s_tail`` is printed by every run but is a metric of the traced
run only: with ten runs beyond it, its value moves by about a fifth
between workload seeds on ``tdtsp-ttt``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workloads are single-threaded; a BLAS thread pool would only add
# threads that compete for the few cores of a shared host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package is imported from this checkout's sources and nowhere else.
sys.path.insert(0, str(SRC))
try:
    import randomkeys
except ImportError as exc:
    raise SystemExit(f"run_bench: cannot import randomkeys from {SRC}: {exc}")
if not Path(randomkeys.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"run_bench: randomkeys resolved outside {SRC}")

import numpy as np  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from kernels import isolated_rows  # noqa: E402
from tracing import Tracer, WatchedDecoder, instrument  # noqa: E402
from workloads import WORKLOADS, check, reached_target  # noqa: E402

# Set-up is timed in a burst before every round, at least this often in
# the first burst and for at least this long in each, and the median of
# all timings is reported.  Spreading the bursts over the run keeps a
# millisecond-scale set-up from being timed in one noisy moment.  The
# first few set-ups in a fresh process take up to half as long again as
# later ones, so a burst is long enough for most timings to be warm.
SETUP_REPEATS = 3
SETUP_BURST_SECONDS = 0.5
TAIL_RUNS = 10


def declared_units(trace: bool) -> dict[str, str]:
    """Name to unit of every metric ``BENCHMARK.json`` declares for the
    end-to-end (``trace`` false) or the per-layer run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Round:
    reports: list
    seconds: list
    traced: bool
    rows: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)

    @property
    def decodes_per_s(self) -> float:
        return sum(r.decoder_calls for r in self.reports) / sum(self.seconds)


def _signature(report) -> tuple:
    return (
        report.best_cost,
        report.decoder_calls,
        report.time_to_best,
        report.searcher,
        report.best_keys.tobytes(),
    )


def _timed(host: HostClock, run, decoder, job) -> tuple:
    return host.time(lambda: run(decoder, job.searchers, job.budget, job.seed,
                                 deterministic=True, target_cost=job.target))


def run_round(jobs, traced: bool, host: HostClock) -> Round:
    if not traced:
        reports, seconds = zip(
            *(_timed(host, randomkeys.run_ensemble, job.decoder, job) for job in jobs)
        )
        return Round(list(reports), list(seconds), traced=False)

    tracer = Tracer()
    run = tracer.wrap("ensemble.run", randomkeys.run_ensemble)
    reports, seconds, watched = [], [], []
    with instrument(tracer) as absent:
        for job in jobs:
            decoder = WatchedDecoder(job.decoder, tracer)
            report, elapsed = _timed(host, run, decoder, job)
            tracer.flush()
            reports.append(report)
            seconds.append(elapsed)
            watched.append(decoder)
    rows = tracer.rows()
    rows["ensemble.lost_best_runs"] = sum(
        r.best_cost > w.best for r, w in zip(reports, watched)
    )
    rows["ensemble.ttb_lag_calls"] = statistics.mean(
        r.time_to_best - w.best_at for r, w in zip(reports, watched)
    )
    return Round(reports, seconds, traced=True, rows=rows, absent=absent)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_RUNS`` values beyond it,
    as (value, percentile); the maximum when there are too few values."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_RUNS - 1 if len(ordered) > TAIL_RUNS else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, make_jobs=None) -> dict:
    """Run one workload and return its result object and report lines.

    ``make_jobs`` replaces the workload's own set-up; the smoke test
    passes smaller sizes through it."""
    make_jobs = make_jobs or WORKLOADS[workload]
    host = HostClock()
    setup: list[float] = []
    rounds: list[Round] = []
    # Start another round while it is expected to end within the time;
    # a traced run needs at least one untraced and one traced round.
    started = time.perf_counter()
    while True:
        burst = time.perf_counter()
        while len(setup) < SETUP_REPEATS or time.perf_counter() - burst < SETUP_BURST_SECONDS:
            jobs, elapsed = host.time(lambda: make_jobs(seed))
            setup.append(elapsed)
        rounds.append(run_round(jobs, trace and len(rounds) % 2 == 1, host))
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and len(rounds) > trace:
            break

    first = rounds[0]
    errors = [
        f"run {i} (seed {job.seed}): {why}"
        for i, (job, report) in enumerate(zip(jobs, first.reports))
        if (why := check(job, report)) is not None
    ]
    expected = [_signature(r) for r in first.reports]
    for n, later in enumerate(rounds[1:], start=1):
        for i, report in enumerate(later.reports):
            if _signature(report) != expected[i]:
                errors.append(f"round {n} run {i}: report differs from round 0")
    hits = [reached_target(job, r) for job, r in zip(jobs, first.reports)]
    attempted = len(jobs) * len(rounds)
    failed = attempted if errors else attempted - sum(hits) * len(rounds)

    plain = [r for r in rounds if not r.traced]
    # A run's time is its median over the untraced rounds.
    times = [
        statistics.median(r.seconds[i] for r in plain)
        for i, hit in enumerate(hits) if hit
    ]
    tail_s, tail_pct = tail(times) if times else (0.0, 100.0)
    target = "the oracle optimum" if jobs[0].target is not None else "the call budget"
    lines = [
        f"workload {workload} seed {seed}: {len(jobs)} runs per round, "
        f"{len(plain)} untraced and {len(rounds) - len(plain)} traced rounds",
        f"failed_frac = {failed / attempted!r} fraction ({failed}/{attempted} runs)",
        f"host speed correction: median factor {host.median_factor():.4f} "
        f"over {len(host.factors)} timings",
        f"ttt target is {target}; ttt_s_tail = {tail_s!r} s "
        f"is p{tail_pct:.1f} of {len(times)} runs",
    ]
    lines += [f"gate error: {e}" for e in errors]

    if not trace:
        calls = [r.decoder_calls for r, hit in zip(first.reports, hits) if hit]
        metrics = {
            "setup_s": statistics.median(setup),
            "decodes_per_s": statistics.median(r.decodes_per_s for r in plain),
            "best_cost_mean": statistics.mean(r.best_cost for r in first.reports),
            "ttt_s_p50": statistics.median(times) if times else 0.0,
            "ttt_calls_p50": statistics.median(calls) if calls else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        traced = [r for r in rounds if r.traced]
        metrics = {
            name: statistics.median(r.rows[name] for r in traced) for name in traced[0].rows
        }
        metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(r.decodes_per_s for r in traced)
            / statistics.median(r.decodes_per_s for r in plain)
        )
        metrics["failed_frac"] = failed / attempted
        metrics["ttt_s_tail"] = tail_s
        metrics.update(isolated_rows(seed))
        if traced[0].absent:
            lines.append(f"absent layers (reported as 0): {', '.join(traced[0].absent)}")

    units = declared_units(trace)
    lines += [f"{name} = {metrics[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    return {"result": result, "lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps({"provenance": provenance(args.workload, args.seed,
                                               args.seconds, bool(args.trace))}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
