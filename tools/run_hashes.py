"""Hash every run of one benchmark round per workload.

Usage, from the root of a checkout:

    python3 tools/run_hashes.py --seeds 1 2
    python3 tools/run_hashes.py --check tools/run_hashes.txt

For each workload of ``bench/workloads.py`` and each seed, the script
runs one round of its jobs, as the benchmark does, and prints one line
``<workload> <seed> <sha256>``.  The hash covers, run by run in job
order, the best cost, the decoder calls, the time to best, the
searcher and the bytes of the best keys.  Two checkouts print the same
line exactly when every run of that round reports the same.

``--check FILE`` reads lines of that form, recomputes each and exits 1
when one differs.  ``tools/run_hashes.txt`` holds seeds 1 to 4; a
change that alters the draws of any run re-records it and says so.

The script only imports ``bench/workloads.py``; it changes nothing
under ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# As in the benchmark: one BLAS thread, so that the portfolio instance's
# covariance product is the same on every host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package and the workloads come from this checkout and nowhere else.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from randomkeys import run_ensemble  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def round_hash(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    for job in WORKLOADS[workload](seed):
        report = run_ensemble(
            job.decoder, job.searchers, job.budget, job.seed,
            deterministic=True, target_cost=job.target,
        )
        fields = (report.best_cost, report.decoder_calls, report.time_to_best, report.searcher)
        digest.update(repr(fields).encode())
        digest.update(report.best_keys.tobytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=int, nargs="+", help="print the hashes at these seeds")
    mode.add_argument("--check", type=Path, metavar="FILE", help="compare with FILE's hashes")
    args = parser.parse_args()

    if args.seeds:
        for seed in args.seeds:
            for workload in WORKLOADS:
                print(workload, seed, round_hash(workload, seed), flush=True)
        return 0

    differ = 0
    for line in args.check.read_text().splitlines():
        workload, seed, expected = line.split()
        actual = round_hash(workload, int(seed))
        verdict = "ok" if actual == expected else f"DIFFERS, expected {expected}"
        differ += actual != expected
        print(workload, seed, actual, verdict, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
