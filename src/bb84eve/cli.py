"""Command-line front-end emitting machine-readable CSV/JSON artifacts.

Subcommands: thresholds, scan, table, povm-check, search-nonsym.
Exit codes: 0 success, 1 domain error (infeasible point, no root),
2 usage error.  Output is deterministic given the flags (and seed where
one applies); floats are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, infotheory, povm as povm_mod, states
from .errors import InfeasiblePoint, NoSignChange, NotPositive, OutOfRange

SCHEMA_VERSION = "1"
MAX_SCAN_POINTS = 10**6


def _round12(obj):
    """Round every float in a nested structure to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(out, command, parameters, rows, provenance) -> None:
    """Write one output record; ``schema_version`` stays its first key."""
    record = dict(
        schema_version=SCHEMA_VERSION, command=command, parameters=parameters,
        rows=rows, provenance=provenance,
    )
    _write(json.dumps(_round12(record), indent=2, allow_nan=False) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _seed(text: str) -> int:
    """The type of every ``--seed`` flag: numpy seeds are integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_thresholds(args) -> int:
    curves = list(analysis.CURVES) if args.all else [args.curve]
    rows = []
    for curve in curves:
        res = analysis.find_threshold(curve, tolerance=args.tol)
        rows.append(
            {
                "curve": res.curve,
                "epsilon_star": res.epsilon_star,
                "qber": res.qber,
                "residual": res.residual,
                "iterations": res.iterations,
            }
        )
    _emit_json(
        args.out, "thresholds", {"curves": curves, "tol": args.tol}, rows,
        {"tolerance": args.tol},
    )
    return 0


def cmd_scan(args) -> int:
    grid = np.arange(0, round((args.stop - args.start) / args.step) + 1)
    grid = args.start + grid * args.step
    grid = grid[grid <= args.stop + 1e-12]
    rows = analysis.scan_curves(grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["epsilon", "I_AB", "I_honest", "I_maxent", "I_minconc", "I_hsw", "qber"]
    )
    for r in rows:
        writer.writerow(
            [
                f"{v:.12g}"
                for v in (
                    r.epsilon,
                    r.i_ab,
                    r.i_honest,
                    r.i_maxent,
                    r.i_minconc,
                    r.i_hsw,
                    r.epsilon / 2,
                )
            ]
        )
    _write(buf.getvalue(), args.out)
    return 0


def cmd_table(args) -> int:
    c22 = args.c22 if args.c22 is not None else infotheory.optimal_c22(args.epsilon)
    point = states.FamilyPoint(args.epsilon, c22)
    analytic = states.joint_table(states.bell_diagonal_state(point))
    empirical = None
    if args.simulate:
        empirical = states.simulate_raw_data(point, args.simulate, args.seed)
    rows = []
    for b, bob in enumerate(states.OUTCOMES):
        for a, alice in enumerate(states.OUTCOMES):
            row = {"bob": bob, "alice": alice, "p": analytic[b, a]}
            if empirical is not None:
                p = analytic[b, a]
                sigma = np.sqrt(p * (1 - p) / args.simulate)
                dev = empirical[b, a] - p
                row["empirical"] = empirical[b, a]
                row["z"] = dev / sigma if sigma > 0 else (0.0 if dev == 0 else None)
            rows.append(row)
    _emit_json(
        args.out, "table",
        {"epsilon": args.epsilon, "c22": c22, "simulate": args.simulate}, rows,
        {"seed": args.seed if args.simulate else None},
    )
    return 0


def cmd_povm_check(args) -> int:
    point = states.FamilyPoint(args.epsilon, args.c22)
    measurement = povm_mod.analytic_povm(point)
    ensemble = states.conditioned_ancilla(point)
    alive = states.bell_weights(point) > states.ZERO_WEIGHT
    support = np.diag(alive.astype(float))
    completeness = float(np.max(np.abs(measurement.total().real - support)))

    evaluated = povm_mod.accessible_info(ensemble, measurement)
    formula = infotheory.mi_eve_analytic(point.c22)
    conj = povm_mod.conjugate_povm(measurement)
    conj_gap = abs(povm_mod.accessible_info(ensemble, conj) - evaluated)
    mixed = povm_mod.convex_combine(measurement, conj, 0.5)
    mix_gap = abs(povm_mod.accessible_info(ensemble, mixed) - evaluated)
    mix_imag = float(np.max(np.abs(mixed.elements.imag)))

    rows = [
        {"check": "completeness_residual", "value": completeness},
        {"check": "accessible_info", "value": evaluated},
        {"check": "analytic_formula", "value": formula},
        {"check": "formula_gap", "value": abs(evaluated - formula)},
        {"check": "conjugate_gap", "value": conj_gap},
        {"check": "equal_weight_gap", "value": mix_gap},
        {"check": "equal_weight_max_imag", "value": mix_imag},
    ]
    if args.optimize:
        cfg = povm_mod.OptimizerConfig(restarts=args.restarts, seed=args.seed)
        result = povm_mod.optimize_povm(ensemble, cfg)
        rows.append({"check": "optimizer_best", "value": result.info})
        rows.append({"check": "optimizer_gap", "value": abs(result.info - formula)})
    _emit_json(
        args.out, "povm-check", {"epsilon": args.epsilon, "c22": args.c22}, rows,
        {
            "optimize": bool(args.optimize),
            "restarts": args.restarts if args.optimize else None,
            "seed": args.seed if args.optimize else None,
        },
    )
    return 0


def cmd_search_nonsym(args) -> int:
    report = analysis.nonsymmetric_search(
        args.epsilon,
        args.trials,
        args.seed,
        optimizer=povm_mod.OptimizerConfig(
            restarts=args.restarts, max_iterations=args.max_iterations
        ),
    )
    data = asdict(report)
    data["best_parameters"] = list(report.best_parameters)
    data["exceeds_symmetric_by"] = report.best_value - report.symmetric_optimum
    _emit_json(
        args.out, "search-nonsym", {"epsilon": args.epsilon, "trials": args.trials},
        [data], {"seed": args.seed, "restarts": args.restarts},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84eve",
        description=(
            "Eavesdropping analysis of the partially tomographic BB84 "
            "protocol: security thresholds, information curves, joint "
            "probability tables, and measurement checks."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("thresholds", help="security thresholds per attack curve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="all four curves")
    group.add_argument("--curve", choices=sorted(analysis.CURVES))
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("scan", help="CSV of all information curves on a grid")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="Alice-Bob joint probability table")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c22", type=float, default=None,
                   help="hidden coefficient (default: minconc rule)")
    p.add_argument("--simulate", type=int, default=0, metavar="N",
                   help="add an empirical table from N samples")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("povm-check", help="validate the optimal measurement")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c22", type=float, required=True)
    p.add_argument("--optimize", action="store_true",
                   help="also run the numerical optimizer")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_povm_check)

    p = sub.add_parser("search-nonsym", help="search nonsymmetric states")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-iterations", type=int, default=300)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_search_nonsym)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "scan":
        ok = 0 <= args.start < args.stop <= 0.5 and 0 < args.step < np.inf
        if not ok or (args.stop - args.start) / args.step > MAX_SCAN_POINTS - 1:
            parser.error(
                "scan grid must satisfy 0 <= start < stop <= 0.5, finite step > 0, "
                f"at most {MAX_SCAN_POINTS} points"
            )
    if args.subcommand == "search-nonsym":
        if not 0 < args.epsilon <= 1:
            parser.error("--epsilon must be in (0, 1]")
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        if args.max_iterations < 1:
            parser.error("--max-iterations must be >= 1")
    if args.subcommand in ("povm-check", "search-nonsym"):
        if not 1 <= args.restarts <= povm_mod.MAX_RESTARTS:
            parser.error(f"--restarts must be in [1, {povm_mod.MAX_RESTARTS}]")
    try:
        return args.func(args)
    except (OutOfRange, NotPositive, InfeasiblePoint, NoSignChange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
