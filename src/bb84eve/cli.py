"""Command-line front-end emitting machine-readable CSV/JSON artifacts.

Subcommands: thresholds, scan, table, povm-check, search-nonsym.
Exit codes: 0 success, 1 domain error (infeasible point, no root),
2 usage error.  Output is deterministic given the flags (and seed where
one applies); floats are printed with 12 significant digits.  Only the
subcommands that need numpy (table, povm-check, search-nonsym) import the
numeric modules, so thresholds and scan start without it, and without
``dataclasses``.  An unwritable ``--out`` is a usage error, found before
any work starts; a write that fails anyway, on a full disk say, exits 2 too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import config
from .curves import CURVES, find_threshold, mi_eve_analytic, optimal_c22, scan_curves
from .errors import InfeasiblePoint, NoSignChange, NotPositive, OutOfRange

SCHEMA_VERSION = "1"
MAX_SCAN_POINTS = 10**6


def _round12(obj):
    """Round every float in a nested structure to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{float(obj):.12g}")
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
    """Write ``text`` to stdout or to ``out``; a failed file write (a full
    disk, say) is a usage error: one ``error:`` line and exit code 2."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out!r}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _writable_file(path: str) -> bool:
    """Whether ``open(path, "w")`` can write ``path``, checked without creating it."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path) or not os.path.isdir(folder):
        return False
    return os.access(path if os.path.exists(path) else folder, os.W_OK)


def _int_in(lo: int, hi: int | None = None):
    """The type of an integer flag: ``int(text)`` that passes ``config.require_int``."""

    def integer(text: str) -> int:
        value = int(text)
        try:
            config.require_int("value", value, lo, hi)
        except OutOfRange as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return integer


def cmd_thresholds(args) -> int:
    names = list(CURVES) if args.all else [args.curve]
    rows = []
    for curve in names:
        res = find_threshold(curve)
        rows.append(
            {
                "curve": res.curve,
                "epsilon_star": res.epsilon_star,
                "qber": res.qber,
                "residual": res.residual,
                "iterations": res.iterations,
            }
        )
    _emit_json(args.out, "thresholds", {"curves": names}, rows, {})
    return 0


def cmd_scan(args) -> int:
    # a point at most 1/1024 of a step past stop is roundoff and prints as stop
    count = math.floor((args.stop - args.start) / args.step + 1 / 1024) + 1
    grid = [min(args.start + i * args.step, args.stop) for i in range(count)]
    header = ["epsilon", "I_AB", *(f"I_{c}" for c in CURVES), "qber"]
    lines = [",".join(header)]
    for row in scan_curves(grid):
        lines.append(",".join(f"{v:.12g}" for v in (*row, row[0] / 2)))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    import numpy as np

    from . import states

    c22 = args.c22 if args.c22 is not None else optimal_c22(args.epsilon)
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
    import numpy as np

    from . import povm as povm_mod, states

    point = states.FamilyPoint(args.epsilon, args.c22)
    measurement = povm_mod.analytic_povm(point)
    ensemble = states.conditioned_ancilla(point)
    alive = states.bell_weights(point) > 0.0
    support = np.diag(alive.astype(float))
    completeness = float(np.max(np.abs(measurement.total().real - support)))

    evaluated = povm_mod.accessible_info(ensemble, measurement)
    formula = mi_eve_analytic(point.c22)
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
    from . import analysis

    report = analysis.nonsymmetric_search(args.epsilon, args.trials, args.seed)
    data = dict(vars(report), exceeds_symmetric_by=report.best_value - report.symmetric_optimum)
    _emit_json(
        args.out, "search-nonsym", {"epsilon": args.epsilon, "trials": args.trials},
        [data],
        {
            "seed": args.seed,
            "restarts": analysis.SEARCH_OPTIMIZER.restarts,
            "max_iterations": analysis.SEARCH_OPTIMIZER.max_iterations,
        },
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the output here instead of stdout")
    seed = dict(type=_int_in(0), default=0)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("thresholds", cmd_thresholds, "security thresholds per attack curve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="all four curves")
    group.add_argument("--curve", choices=sorted(CURVES))

    p = command("scan", cmd_scan, "CSV of all information curves on a grid")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    p = command("table", cmd_table, "Alice-Bob joint probability table")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c22", type=float, default=None,
                   help="hidden coefficient (default: minconc rule)")
    p.add_argument("--simulate", type=_int_in(0, config.MAX_SAMPLES), default=0,
                   metavar="N", help="add an empirical table from N samples")
    p.add_argument("--seed", **seed)

    p = command("povm-check", cmd_povm_check, "validate the optimal measurement")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c22", type=float, required=True)
    p.add_argument("--optimize", action="store_true",
                   help="also run the numerical optimizer")
    p.add_argument("--restarts", type=_int_in(1, config.MAX_RESTARTS),
                   default=config.DEFAULT_RESTARTS)
    p.add_argument("--seed", **seed)

    p = command("search-nonsym", cmd_search_nonsym, "search nonsymmetric states")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=_int_in(1, config.MAX_TRIALS), required=True)
    p.add_argument("--seed", **seed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "scan":
        ok = 0 <= args.start < args.stop <= 0.5 and 0 < args.step < math.inf
        if not ok or (args.stop - args.start) / args.step > MAX_SCAN_POINTS - 1:
            parser.error(
                "scan grid must satisfy 0 <= start < stop <= 0.5, finite step > 0, "
                f"at most {MAX_SCAN_POINTS} points"
            )
        # ε prints with 12 significant digits, so a narrower step repeats rows
        unit = 10.0 ** (math.floor(math.log10(args.stop)) - 11)
        if args.step <= unit:
            parser.error(f"scan step must exceed {unit:g}, one unit in the 12th digit of stop")
    if args.out is not None and not _writable_file(args.out):
        parser.error(
            f"argument --out: cannot write {args.out!r}; "
            "name a file in an existing, writable directory"
        )
    try:
        return args.func(args)
    except (OutOfRange, NotPositive, InfeasiblePoint, NoSignChange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
