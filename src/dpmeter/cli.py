"""Command-line entry points.

Subcommands mirror the pipeline stages: ``synth`` emits a meter panel,
``privatize`` a noised aggregate, ``forecast`` a day-ahead forecast,
``scenarios`` calibrated error paths, ``procure`` solves one procurement
instance, ``experiment`` runs the full grid, and ``report`` re-emits the
plot-ready tables from a saved result table.  Exit code 0 means every cell
succeeded; as for a usage error, an unreadable or invalid input file or an
argument value out of range prints one ``dpmeter: error:`` line and exits
with code 2.  Every CSV a command reads or writes goes through
``domain.read_csv`` and ``domain.write_csv``: ``\\n`` line ends, ``repr``
floats and an empty cell for ``None``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .domain import (
    _SCHEME_KINDS,
    compute_dlc,
    read_csv,
    read_meter_csv,
    write_csv,
    write_meter_csv,
)
from .experiment import (
    ExperimentConfig,
    _scheme_of,
    load_config,
    read_results_csv,
    report,
    run_experiment,
    write_results_csv,
)
from .forecast import TrainConfig, forecast_scheme, save_model
from .metrics import WapeScore
from .privacy import PrivacyParams, privatize_aggregate
from .procurement import build_milp, read_instance, solve
from .scenario import generate_scenarios, write_scenario_csv
from .synth import SynthConfig, generate_panel, kmeans_groups, write_group_csv


def _usage_error(message: str, cause: Exception) -> NoReturn:
    print(f"dpmeter: error: {message}", file=sys.stderr)
    raise SystemExit(2) from cause


def _load(reader, path):
    """``reader(path)``; an unreadable or invalid file is a usage error."""
    try:
        return reader(path)
    except (OSError, TypeError, ValueError) as exc:
        _usage_error(f"{path}: {exc}", exc)


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)`` on argument values; a value its validator
    rejects is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _usage_error(str(exc), exc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    cfg = _checked(
        SynthConfig,
        n_meters=args.meters, n_weeks=args.weeks, pv_fraction=args.pv,
        ev_fraction=args.ev, seed=args.seed,
    )
    panel = generate_panel(cfg)
    out = _out_dir(args)
    write_meter_csv(panel, out / "meters.csv")
    if args.kmeans:
        groups = _checked(kmeans_groups, panel, args.kmeans, args.seed)
        write_group_csv(groups, out / "groups.csv")
        for g in groups:
            print(f"group {g.label}: {len(g.meter_ids)} meters, kld={g.kld_vs_system.value:.6g}")
    print(f"wrote {out / 'meters.csv'} ({panel.n_meters} meters x {panel.n_periods} periods)")
    return 0


def cmd_privatize(args) -> int:
    params = _checked(PrivacyParams, args.epsilon, args.gamma)
    panel = _load(read_meter_csv, args.input)
    noisy = privatize_aggregate(panel, params, args.seed)
    out = _out_dir(args)
    path = out / "aggregate_noisy.csv"
    write_csv(path, ["period_index", "kwh_noisy"], enumerate(noisy.values, noisy.start))
    print(f"wrote {path}")
    return 0


def cmd_forecast(args) -> int:
    scheme = _checked(_scheme_of, args.scheme, args.epsilon, args.gamma)
    cfg = _checked(TrainConfig, epochs=args.epochs)
    panel = _load(read_meter_csv, args.input)
    dlc = _checked(compute_dlc, panel)
    result = _checked(forecast_scheme, scheme, panel, dlc, cfg, args.seed)
    out = _out_dir(args)
    path = out / "forecast.csv"
    fc = result.forecast
    write_csv(path, ["period_index", "kwh"], enumerate(fc.values, fc.start))
    save_model(result.model, out / "model.txt")
    print(f"wrote {path}; backtest wape={result.wape_backtest.value:.6g}")
    return 0


def _read_forecast(path) -> np.ndarray:
    """The ``kwh`` column of a CSV written by ``dpmeter forecast``."""
    return np.array([float(kwh) for (kwh,) in read_csv(path, "forecast", ["kwh"])])


def cmd_scenarios(args) -> int:
    wape = _checked(WapeScore, args.wape)
    forecast = _load(_read_forecast, args.forecast)
    scen = _checked(generate_scenarios, forecast, wape, args.count, args.seed)
    out = _out_dir(args)
    write_scenario_csv(scen, out / "scenarios.csv")
    print(f"wrote {out / 'scenarios.csv'} ({args.count} scenarios)")
    return 0


def cmd_procure(args) -> int:
    model = _load(lambda path: build_milp(read_instance(path)), args.instance)
    inst = model.instance
    sol = _checked(solve, model, tol=args.tol)
    if sol.status != "optimal":
        where = f": {sol.infeasible_row}" if sol.infeasible_row else ""
        print(f"{sol.status}{where}", file=sys.stderr)
        return 1
    out = _out_dir(args)
    write_csv(
        out / "solution_da.csv",
        ["t", "d_da_mwh", "price_da"],
        ([t, sol.d_da[t], sol.price_da[t]] for t in range(inst.n_periods)),
    )
    write_csv(
        out / "solution_bal.csv",
        ["s", "t", "d_bal_mwh", "price_bal"],
        (
            [s, t, sol.d_bal[s, t], sol.price_bal[s, t]]
            for s in range(inst.n_scenarios)
            for t in range(inst.n_periods)
        ),
    )
    write_csv(
        out / "solution_summary.csv",
        ["objective", "expected_cost", "cvar", "gap"],
        [[sol.objective, sol.expected_cost, sol.cvar, sol.gap]],
    )
    print(
        f"objective={sol.objective:.6g} expected={sol.expected_cost:.6g} "
        f"cvar={sol.cvar:.6g} gap={sol.gap:.3g}"
    )
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(load_config, args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    if args.config:  # set-up reads the meter and ladder files the config names
        results, failures = _load(lambda _: run_experiment(cfg), args.config)
    else:
        results, failures = run_experiment(cfg)
    out = _out_dir(args)
    if results:
        report(results, out, cfg)
        print(f"wrote {len(results)} rows to {out}")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    cfg = _load(load_config, args.config) if args.config else ExperimentConfig()
    results = _load(read_results_csv, args.results)
    written = report(results, _out_dir(args), cfg)
    print("wrote " + ", ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmeter",
        description="Privacy-preserving smart meter data valuation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="deterministic run seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic meter panel")
    add_common(p)
    p.add_argument("--meters", type=int, default=200)
    p.add_argument("--weeks", type=int, default=8)
    p.add_argument("--pv", type=float, default=0.5, help="PV fraction")
    p.add_argument("--ev", type=float, default=0.5, help="EV fraction")
    p.add_argument("--kmeans", type=int, default=0, help="also write k groups")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("privatize", help="noised aggregate of a meter panel")
    add_common(p)
    p.add_argument("--input", required=True, help="meter CSV path")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("forecast", help="day-ahead forecast under a scheme")
    add_common(p)
    p.add_argument("--input", required=True, help="meter CSV path")
    p.add_argument("--scheme", required=True, choices=_SCHEME_KINDS)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=80)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("scenarios", help="sample forecast-error scenarios")
    add_common(p)
    p.add_argument("--forecast", required=True, help="forecast CSV path")
    p.add_argument("--wape", type=float, required=True)
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("procure", help="solve a procurement instance file")
    add_common(p)
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_procure)

    p = sub.add_parser("experiment", help="run the full scheme/grid experiment")
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p.add_argument("--out", default="out")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="re-emit report tables from results.csv")
    add_common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
