"""Command-line experiment harness.

Subcommands: solve, rpd, ttt, frontier, profile, oracle, generate.
Exit codes: 0 on success, 2 on parse/validation errors (argparse uses
the same code for bad flags), 3 when an oracle guard refuses the
instance.

CSV outputs use fixed 6-decimal floats and stable column sets (schema
names: runs-v1, rpd-v1, ttt-v1, frontier-v1, profile-v1) so downstream
tooling and golden-file tests can rely on the exact bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .budget import RunBudget
from .ensemble import RunReport, run_ensemble
from .errors import InstanceFormatError, OracleGuardError
from .instances import (
    budget_for,
    load_mip,
    load_orlib_portfolio,
    load_tdtsp,
    write_tdtsp,
)
from .metrics import (
    profile_fractions,
    quality_ratios,
    summarize_rpd,
    ttt_curve,
    ttt_target,
)
from .mip import MipDecoder, PenaltyModel, brute_force_mip, check_mip
from .portfolio import (
    PortfolioDecoder,
    PortfolioInstance,
    brute_force_portfolio,
    check_portfolio,
)
from .searchers import BrkgaParams, IlsParams, SaParams, VnsParams
from .tdtsp import TdTspDecoder, brute_force_tdtsp, check_tdtsp, generate_tdtsp_instance

__all__ = ["main"]

RUNS_CSV_COLUMNS = ["seed", "best_cost", "time_to_best", "decoder_calls", "searcher"]
RPD_CSV_COLUMNS = [
    "instance", "reference", "best_cost", "rpd_best", "rpd_avg",
    "mean_time_to_best", "n_runs",
]
TTT_CSV_COLUMNS = ["rank", "time_s", "prob", "censored"]
FRONTIER_CSV_COLUMNS = ["lambda", "risk", "return", "cost"]
PROFILE_CSV_COLUMNS = ["scheme", "method", "tau", "rho"]

_SEARCHER_KINDS = {
    "brkga": BrkgaParams,
    "sa": SaParams,
    "ils": IlsParams,
    "vns": VnsParams,
}


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _parse_searchers(spec: str):
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise InstanceFormatError("no searchers named")
    try:
        return [_SEARCHER_KINDS[name]() for name in names]
    except KeyError as exc:
        raise InstanceFormatError(
            f"unknown searcher {exc.args[0]!r}; pick from {sorted(_SEARCHER_KINDS)}"
        ) from exc


def _portfolio(args, means, covariance, risk_aversion: float) -> PortfolioInstance:
    """The portfolio instance under the portfolio flags; an invalid flag
    is an instance format error."""
    try:
        return PortfolioInstance(
            means=means,
            covariance=covariance,
            cardinality=args.cardinality,
            risk_aversion=risk_aversion,
            lower=args.lower_bound,
            upper=args.upper_bound,
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _instance(args):
    """The instance named by --instance, read as --kind says."""
    path = Path(args.instance)
    if args.kind == "mip":
        return load_mip(path)
    if args.kind == "portfolio":
        means, covariance = load_orlib_portfolio(path)
        return _portfolio(args, means, covariance, args.risk_aversion)
    # tdtsp, the one kind left that argparse's choices admit
    return load_tdtsp(path)


def _load_problem(args):
    """Build (decoder, size, describe_best) for the chosen kind and
    flags; ``size`` is what the wall-clock budget schedule reads."""
    instance = _instance(args)
    if args.kind == "mip":
        decoder = MipDecoder(instance, PenaltyModel(weight=args.penalty_weight))

        def describe(report: RunReport) -> dict:
            decoded = decoder.decode(report.best_keys)
            verdict = check_mip(instance, decoded.x)
            return {
                "x": decoded.x.tolist(),
                "objective": decoded.objective,
                "penalty": decoded.penalty,
                "cost": decoded.cost,
                "feasible": verdict.feasible,
            }

        return decoder, decoder.dimension, describe
    if args.kind == "portfolio":
        decoder = PortfolioDecoder(instance)

        def describe(report: RunReport) -> dict:
            decoded = decoder.decode(report.best_keys)
            verdict = check_portfolio(instance, decoded)
            return {
                "assets": list(decoded.assets),
                "weights": decoded.weights.tolist(),
                "risk": decoded.risk,
                "return": decoded.mean_return,
                "penalty": decoded.penalty,
                "cost": decoded.cost,
                "feasible": verdict.feasible,
            }

        return decoder, instance.n_assets, describe
    decoder = TdTspDecoder(instance)

    def describe(report: RunReport) -> dict:
        decoded = decoder.decode(report.best_keys)
        verdict = check_tdtsp(instance, decoded)
        return {
            "order": list(decoded.order),
            "arrival": decoded.arrival.tolist(),
            "travel_cost": decoded.travel_cost,
            "penalized": decoded.penalized,
            "cost": decoded.cost,
            "feasible": verdict.feasible,
        }

    return decoder, instance.n_customers, describe


def _budget_from_args(args, kind: str, size: int) -> RunBudget:
    """Budget from --time-limit and --decoder-calls; without either, the
    wall-clock schedule of ``kind`` for an instance of ``size``."""
    time_limit = args.time_limit
    calls = args.decoder_calls
    if args.deterministic and (calls is None or time_limit is not None):
        raise InstanceFormatError(
            "--deterministic needs --decoder-calls and no --time-limit: "
            "a wall-clock budget does not reproduce"
        )
    if time_limit is None and calls is None:
        if kind == "mip":
            raise InstanceFormatError(
                "give --time-limit or --decoder-calls for MIP instances"
            )
        time_limit = budget_for(kind, size)
    return RunBudget(time_limit=time_limit, decoder_calls=calls)


def _run_seeds(args, decoder, searchers, budget, seeds, target=None) -> list[RunReport]:
    """The ensemble runs at seeds 1..``seeds``, with the initial fill
    size, quantum and determinism check taken from the shared run flags."""
    return [
        run_ensemble(
            decoder,
            searchers,
            budget,
            seed,
            pool_capacity=args.pool_size,
            deterministic=args.deterministic,
            quantum=args.quantum,
            target_cost=target,
        )
        for seed in range(1, seeds + 1)
    ]


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def cmd_solve(args) -> int:
    decoder, size, describe = _load_problem(args)
    budget = _budget_from_args(args, args.kind, size)
    searchers = _parse_searchers(args.searchers)
    reports = _run_seeds(args, decoder, searchers, budget, args.seeds, args.target_cost)
    rows = [
        [
            str(r.seed),
            _fmt(r.best_cost),
            _fmt(r.time_to_best),
            str(r.decoder_calls),
            r.searcher,
        ]
        for r in reports
    ]
    out = Path(args.out)
    _write_csv(out.with_name(out.name + "_runs.csv"), RUNS_CSV_COLUMNS, rows)

    best = min(reports, key=lambda r: r.best_cost)
    summary = {
        "schema": "solve-v1",
        "instance": str(args.instance),
        "kind": args.kind,
        "searchers": args.searchers,
        "seeds": args.seeds,
        "deterministic": args.deterministic,
        "pool_size": args.pool_size,
        "best": {
            "cost": best.best_cost,
            "seed": best.seed,
            "searcher": best.searcher,
            "keys": best.best_keys.tolist(),
        },
        "solution": describe(best),
        "aggregate": {
            "mean_cost": float(np.mean([r.best_cost for r in reports])),
            "mean_time_to_best": float(np.mean([r.time_to_best for r in reports])),
            "total_decoder_calls": int(sum(r.decoder_calls for r in reports)),
        },
    }
    out.with_name(out.name + ".json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"best cost {_fmt(best.best_cost)} (seed {best.seed}, {best.searcher})")
    return 0


def cmd_rpd(args) -> int:
    runs = Path(args.runs)
    with runs.open() as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise InstanceFormatError(f"{runs}: no data rows")
    try:
        costs = [float(r["best_cost"]) for r in rows]
        times = [float(r["time_to_best"]) for r in rows]
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(f"{runs}: not a runs CSV: {exc}") from exc
    try:
        summary = summarize_rpd(args.instance_id, args.reference, costs, times)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    _write_csv(
        Path(args.out),
        RPD_CSV_COLUMNS,
        [[
            summary.instance,
            _fmt(summary.reference),
            _fmt(summary.best_cost),
            _fmt(summary.rpd_best),
            _fmt(summary.rpd_avg),
            _fmt(summary.mean_time_to_best),
            str(summary.n_runs),
        ]],
    )
    print(
        f"rpd best {_fmt(summary.rpd_best)} avg {_fmt(summary.rpd_avg)} "
        f"over {summary.n_runs} runs"
    )
    return 0


def cmd_ttt(args) -> int:
    decoder, size, _ = _load_problem(args)
    target = ttt_target(args.reference, args.target_percent)
    if not math.isfinite(target):
        raise InstanceFormatError(
            f"--reference {args.reference} and --target-percent {args.target_percent} "
            f"give a target that is not finite"
        )
    budget = _budget_from_args(args, args.kind, size)
    # censoring point: the budget in the unit time_to_best counts, which
    # is wall seconds when there is a time limit and decoder calls if not
    if budget.time_limit is not None:
        limit = budget.time_limit
    else:
        limit = float(budget.decoder_calls)
    searchers = _parse_searchers(args.searchers)
    results = [
        report.time_to_best if report.best_cost <= target else None
        for report in _run_seeds(args, decoder, searchers, budget, args.repetitions, target)
    ]
    curve = ttt_curve(results, target=target, limit=limit)
    rows = [
        [str(i + 1), _fmt(t), _fmt(p), "0"]
        for i, (t, p) in enumerate(curve.points())
    ]
    for k in range(curve.n_censored):
        rows.append([str(len(curve.times) + k + 1), _fmt(curve.limit), "", "1"])
    _write_csv(Path(args.out), TTT_CSV_COLUMNS, rows)
    print(
        f"target {_fmt(target)}: reached in {len(curve.times)}/{curve.n_runs} runs"
    )
    return 0


def cmd_frontier(args) -> int:
    means, covariance = load_orlib_portfolio(Path(args.instance))
    lambdas = args.lambdas
    if any(not 0.0 < lam < 1.0 for lam in lambdas):
        raise InstanceFormatError("frontier lambdas must lie strictly inside (0, 1)")
    searchers = _parse_searchers(args.searchers)
    budget = _budget_from_args(args, "portfolio", means.shape[0])
    rows = []
    for lam in lambdas:
        decoder = PortfolioDecoder(_portfolio(args, means, covariance, lam))
        reports = _run_seeds(args, decoder, searchers, budget, args.seeds)
        best = min(reports, key=lambda r: r.best_cost)  # the first of the lowest
        decoded = decoder.decode(best.best_keys)
        rows.append(
            [_fmt(lam), _fmt(decoded.risk), _fmt(decoded.mean_return), _fmt(decoded.cost)]
        )
        print(f"lambda {_fmt(lam)}: cost {_fmt(decoded.cost)}")
    _write_csv(Path(args.out), FRONTIER_CSV_COLUMNS, rows)
    return 0


def cmd_profile(args) -> int:
    results = Path(args.results)
    with results.open() as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise InstanceFormatError(f"{results}: no data rows")
    methods: dict[str, dict[str, float]] = {}
    try:
        for r in rows:
            methods.setdefault(r["method"], {})[r["instance"]] = float(r["cost"])
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(
            f"{results}: expected method,instance,cost rows: {exc}"
        ) from exc
    refs = Path(args.references)
    with refs.open() as handle:
        ref_rows = list(csv.DictReader(handle))
    try:
        best_ref = {r["instance"]: float(r["best"]) for r in ref_rows}
        lower_ref = {r["instance"]: float(r["lower"]) for r in ref_rows}
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(
            f"{refs}: expected instance,best,lower rows: {exc}"
        ) from exc
    taus = args.taus
    out_rows = []
    try:
        for scheme, reference in (("best", best_ref), ("lower", lower_ref)):
            for method in sorted(methods):
                ratios = quality_ratios(methods[method], reference, scheme)
                for tau, rho in zip(taus, profile_fractions(ratios, taus)):
                    out_rows.append([scheme, method, _fmt(tau), _fmt(rho)])
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    _write_csv(Path(args.out), PROFILE_CSV_COLUMNS, out_rows)
    print(f"profiled {len(methods)} methods over {len(best_ref)} instances")
    return 0


def cmd_oracle(args) -> int:
    instance = _instance(args)
    if args.kind == "mip":
        cost, x = brute_force_mip(instance, PenaltyModel(weight=args.penalty_weight))
        payload = {"kind": "mip", "cost": cost, "x": x.tolist()}
    elif args.kind == "portfolio":
        cost, assets, weights = brute_force_portfolio(instance, args.grid_step)
        payload = {
            "kind": "portfolio",
            "cost": cost,
            "assets": list(assets),
            "weights": weights.tolist(),
            "grid_step": args.grid_step,
        }
    else:  # tdtsp
        cost, order = brute_force_tdtsp(instance)
        payload = {"kind": "tdtsp", "cost": cost, "order": list(order)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_generate(args) -> int:
    instance = generate_tdtsp_instance(
        n_customers=args.customers,
        n_intervals=args.intervals,
        seed=args.seed,
        horizon=args.horizon,
    )
    write_tdtsp(instance, Path(args.out))
    print(f"wrote {args.out} (n={args.customers}, H={args.intervals}, seed={args.seed})")
    return 0


def _floats(text: str) -> list[float]:
    """An argparse type that reads a comma list of floats."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")


def _checked(kind, accept, wanted: str):
    """An argparse type that reads a ``kind`` and refuses a value that
    ``accept`` rejects, saying that it must be ``wanted``."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _positive(kind):
    """An argparse type that reads a ``kind`` and refuses values <= 0,
    NaN and infinity."""
    return _checked(kind, lambda value: 0 < value < math.inf, "positive and finite")


def _finite(kind):
    """An argparse type that reads a ``kind`` and refuses NaN and infinity."""
    return _checked(kind, math.isfinite, "finite")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--searchers", default="brkga,sa,ils,vns",
                        help="comma list from brkga,sa,ils,vns")
    parser.add_argument("--time-limit", type=_positive(float), default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--decoder-calls", type=_positive(int), default=None,
                        help="decoder-call budget")
    parser.add_argument("--deterministic", action="store_true",
                        help="refuse the run unless it reproduces: needs "
                             "--decoder-calls and no --time-limit; changes "
                             "nothing else")
    parser.add_argument("--pool-size", type=_positive(int), default=20,
                        help="random vectors decoded before the searchers "
                             "start (the initial fill)")
    parser.add_argument("--quantum", type=_positive(int), default=100,
                        help="decoder calls per searcher slice of the "
                             "round-robin driver")


def _add_portfolio_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cardinality", type=int, default=5,
                        help="number of assets to select")
    parser.add_argument("--risk-aversion", type=float, default=0.5)
    parser.add_argument("--lower-bound", type=float, default=0.0,
                        help="per-asset weight lower bound")
    parser.add_argument("--upper-bound", type=float, default=1.0,
                        help="per-asset weight upper bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randomkeys",
        description="Random-key metaheuristic ensemble experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the ensemble on an instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--kind", required=True, choices=["mip", "portfolio", "tdtsp"])
    solve.add_argument("--seeds", type=_positive(int), default=5,
                       help="number of runs, seeded 1..N")
    solve.add_argument("--target-cost", type=_finite(float), default=None,
                       dest="target_cost",
                       help="stop a run early once this cost is reached")
    solve.add_argument("--penalty-weight", type=_positive(float), default=1e4)
    solve.add_argument("--out", required=True,
                       help="output prefix; writes PREFIX.json and PREFIX_runs.csv")
    _add_run_flags(solve)
    _add_portfolio_flags(solve)
    solve.set_defaults(func=cmd_solve)

    rpd = sub.add_parser("rpd", help="summarize a runs CSV against a reference")
    rpd.add_argument("--runs", required=True, help="runs CSV from solve")
    rpd.add_argument("--reference", type=_finite(float), required=True,
                     help="reference best-known cost")
    rpd.add_argument("--instance-id", required=True)
    rpd.add_argument("--out", required=True)
    rpd.set_defaults(func=cmd_rpd)

    ttt = sub.add_parser("ttt", help="time-to-target experiment")
    ttt.add_argument("--instance", required=True)
    ttt.add_argument("--kind", required=True, choices=["mip", "portfolio", "tdtsp"])
    ttt.add_argument("--reference", type=_finite(float), required=True)
    ttt.add_argument("--target-percent", type=_finite(float), default=1.0,
                     help="target is reference plus this percent of |reference|")
    ttt.add_argument("--repetitions", type=_positive(int), default=10)
    ttt.add_argument("--penalty-weight", type=_positive(float), default=1e4)
    ttt.add_argument("--out", required=True)
    _add_run_flags(ttt)
    _add_portfolio_flags(ttt)
    ttt.set_defaults(func=cmd_ttt)

    frontier = sub.add_parser("frontier", help="sweep risk aversion on a portfolio")
    frontier.add_argument("--instance", required=True,
                          help="OR-Library portfolio file")
    frontier.add_argument(
        "--lambdas",
        type=_floats,
        default=",".join(f"{v / 100:.2f}" for v in range(2, 99, 2)),
        help="comma list of risk-aversion values strictly inside (0, 1)",
    )
    frontier.add_argument("--seeds", type=_positive(int), default=1)
    frontier.add_argument("--out", required=True)
    _add_run_flags(frontier)
    _add_portfolio_flags(frontier)
    frontier.set_defaults(func=cmd_frontier)

    profile = sub.add_parser("profile", help="quality performance profiles")
    profile.add_argument("--results", required=True,
                         help="CSV with method,instance,cost rows")
    profile.add_argument("--references", required=True,
                         help="CSV with instance,best,lower rows")
    profile.add_argument("--taus", type=_floats, default="1.0,1.02,1.05,1.1,1.25,1.5,2.0")
    profile.add_argument("--out", required=True)
    profile.set_defaults(func=cmd_profile)

    oracle = sub.add_parser("oracle", help="brute-force reference optimum")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--kind", required=True, choices=["mip", "portfolio", "tdtsp"])
    oracle.add_argument("--grid-step", type=_positive(float), default=1e-3)
    oracle.add_argument("--penalty-weight", type=_positive(float), default=1e4)
    oracle.add_argument("--out", default=None)
    _add_portfolio_flags(oracle)
    oracle.set_defaults(func=cmd_oracle)

    generate = sub.add_parser("generate", help="write a random TD-TSP instance")
    generate.add_argument("--customers", type=_positive(int), required=True)
    generate.add_argument("--intervals", type=_positive(int), required=True)
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--horizon", type=_positive(float), default=54000.0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
