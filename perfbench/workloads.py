"""The four workloads: seeded inputs, one op each, and its accuracy gates.

Every workload has ``name``, ``block`` (ops in one full cycle of its input
mix; per-layer counts are taken over the first block, so they repeat
exactly for a seed), ``setup()`` (import the program and warm up),
``input(i)``, ``run(x, tracer)`` (the timed op) and ``check(x, out)`` (the
untimed gates, returning the reasons the op failed).

The gates use the tolerances of the acceptance criteria in
``tests/test_acceptance.py``, never looser ones.  Reference values are
computed here from the closed forms, not by the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120

# Criterion 1: curve -> (epsilon_star, tolerance), and curve -> (qber, tolerance).
THRESHOLDS = {
    "honest": (0.29289, 1e-4),
    "maxent": (0.21380, 1e-4),
    "minconc": (0.20000, 1e-6),
    "hsw": (0.1230, 5e-4),
}
QBERS = {"minconc": (0.100, 1e-6), "hsw": (0.0615, 2.5e-4)}

# Criterion 6's optimizer settings; its seed is fixed so that an op's cost
# depends on its point alone.
ORACLE_CONFIG = {"restarts": 20, "max_iterations": 500, "seed": 0}
# Draws per search call: the symmetric centre, one local perturbation and one
# uniform draw.  A search op, one call per ε, then takes about 0.2 s, so a run
# holds a hundred or more of them.
SEARCH_TRIALS = 3
SEARCH_EPSILONS = (0.1, 0.25, 0.4)
POINTS_PER_OP = 12

# Roberts' R2 low-discrepancy sequence: any run prefix covers the (ε, c22)
# square evenly, so run-level medians vary little with the seed.
_G = 1.324717957244746
_R2 = np.array([1 / _G, 1 / _G**2])


def r2(shift: np.ndarray, i: int) -> np.ndarray:
    return (shift + i * _R2) % 1.0


# ---------------------------------------------------------------------------
# Closed-form references.


def correlation_info(x: float) -> float:
    low = 0.0 if x >= 1.0 else 0.5 * (1 - x) * math.log2(1 - x)
    return low + 0.5 * (1 + x) * math.log2(1 + x)


def mi_eve(c22: float) -> float:
    return 0.5 * correlation_info(math.sqrt(max(0.0, 1 - c22 * c22)))


def mi_eve_optimal(epsilon: float) -> float:
    if epsilon >= 0.5:
        return 0.5
    return 0.5 * correlation_info(2 * math.sqrt(epsilon * (1 - epsilon)))


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def bell_weights(epsilon: float, c22: float) -> np.ndarray:
    e, c = epsilon, c22
    return np.clip(np.array([3 - 2 * e - c, 1 + c, -1 + 2 * e - c, 1 + c]) / 4, 0, None)


def hsw_closed_form(epsilon: float, c22: float) -> float:
    """S(average ancilla state) minus the mean member entropy.

    The average is diagonal with the Bell weights; every conditioned state
    has eigenvalues (1-ε/2, ε/2).  Along c22 = -(1-ε)² this is criterion 3's
    1 - correlation_info(1-ε).
    """
    return shannon(bell_weights(epsilon, c22)) - shannon([epsilon / 2, 1 - epsilon / 2])


def joint_table_closed_form(epsilon: float) -> np.ndarray:
    e, m, f = epsilon / 16, (2 - epsilon) / 16, 1 / 16
    return np.array([[e, m, f, f], [m, e, f, f], [f, f, e, m], [f, f, m, e]])


def concurrence_closed_form(epsilon: float, c22: float) -> float:
    return max(0.0, 0.5 * (1 - c22) - epsilon)


def threshold_problems(curve: str, epsilon_star: float, qber: float) -> list[str]:
    want, tol = THRESHOLDS[curve]
    out = []
    if not abs(epsilon_star - want) <= tol:
        out.append(f"{curve} epsilon_star {epsilon_star!r} vs {want}")
    if curve in QBERS:
        want, tol = QBERS[curve]
        if not abs(qber - want) <= tol:
            out.append(f"{curve} qber {qber!r} vs {want}")
    return out


def gate(name: str, error: float, tol: float) -> list[str]:
    return [] if error <= tol else [f"{name} error {error:.3e} > {tol:.0e}"]


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bb84eve
    import bb84eve.cli

    return bb84eve


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Point(NamedTuple):
    kind: str  # "interior", "lower" (c22 = -1) or "upper" (c22 = 2ε-1)
    epsilon: float
    c22: float


def edge_point(kind: str, epsilon: float, t: float) -> Point:
    if kind == "lower":
        return Point(kind, epsilon, -1.0)
    if kind == "upper":
        return Point(kind, epsilon, 2 * epsilon - 1)
    return Point(kind, epsilon, -1 + 2 * epsilon * t)


# ---------------------------------------------------------------------------


class CliCold:
    """One fresh ``python -m bb84eve.cli`` process per op, cycling a fixed mix."""

    name = "cli-cold"
    subcommands = ("thresholds", "scan", "table", "povm-check")
    block = len(subcommands)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        eps_table = round(float(rng.uniform(0.05, 0.45)), 6)
        eps_check = round(float(rng.uniform(0.05, 0.95)), 6)
        c22_check = round(-1 + 2 * eps_check * float(rng.uniform(0.05, 0.95)), 6)
        self.mix = (
            ("thresholds", "--all"),
            ("scan", "--start", "0", "--stop", "0.5", "--step", "0.005"),
            ("table", "--epsilon", repr(eps_table), "--simulate", "1000000",
             "--seed", str(int(rng.integers(2**31)))),
            ("povm-check", "--epsilon", repr(eps_check), "--c22", repr(c22_check)),
        )
        self.reference: dict[tuple, bytes] = {}
        self.env = child_env()

    def _launch(self, argv, importtime: bool = False):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-m", "bb84eve.cli", *argv]
        return subprocess.run(
            cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )

    def setup(self) -> None:
        self._launch(self.input(0))  # fills the bytecode and page caches

    def input(self, i: int) -> tuple:
        return self.mix[i % len(self.mix)]

    def run(self, x, tracer=None):
        if tracer is None:
            return self._launch(x)
        with tracer.span("cli.process", subcommand=x[0]) as s:
            proc = self._launch(x, importtime=True)
        s.attrs["imports"] = tracing.parse_importtime(proc.stderr.decode())
        return proc

    def check(self, x, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"{x[0]} exited {proc.returncode}: {proc.stderr[-300:]!r}"]
        ref = self.reference.setdefault(x, proc.stdout)
        if proc.stdout != ref:
            return [f"{x[0]} stdout differs from the first launch"]
        if x[0] == "thresholds":
            out = []
            for row in json.loads(proc.stdout)["rows"]:
                out += threshold_problems(row["curve"], row["epsilon_star"], row["qber"])
            return out
        return []

    def main_calls(self, tracer, reps: int) -> None:
        """In-process ``cli.main`` for each argv of the mix, ``reps`` times."""
        cli = import_program().cli
        tracer.owner = self.name
        for rep in range(reps):
            for i, argv in enumerate(self.mix):
                tracer.op = rep * len(self.mix) + i
                with contextlib.redirect_stdout(io.StringIO()):
                    with tracer.span("cli.main", subcommand=argv[0]):
                        code = cli.main(list(argv))
                if code != 0:
                    raise RuntimeError(f"in-process cli.main {argv} returned {code}")

    @staticmethod
    def layer_metrics(tracer) -> dict[str, float]:
        out = {}
        imports = [s.attrs["imports"] for s in tracer.select("cli.process", CliCold.name)]
        for key in ("total", "numpy", "scipy", "bb84eve"):
            out[f"import.{key}_s"] = float(np.median([d[key] for d in imports]))
        for sub in CliCold.subcommands:
            spans = tracer.select("cli.main", CliCold.name, subcommand=sub)
            out[f"cli.main.{sub}.self_s"] = tracing.median_self_s(spans)
        return out


class ClosedForm:
    """Every closed-form layer over a sweep of seeded feasible points per op.

    An op is POINTS_PER_OP points, half of them on the edges, plus one
    ``find_threshold`` per curve.  A single point takes about 4 ms, so a host
    stall of a tenth of a second slowed dozens of consecutive one-point ops
    and decided the tail latency alone.
    """

    name = "closed-form"
    block = 1
    kinds = ("interior", "lower", "interior", "upper")
    layers = (
        "states.bell_diagonal_state",
        "states.conditioned_ancilla",
        "states.purification",
        "states.joint_table",
        "linalg.partial_trace",
        "linalg.von_neumann_entropy",
        "linalg.eig_hermitian",
        "infotheory.hsw_bound",
        "infotheory.concurrence",
        "povm.analytic_povm",
        "povm.accessible_info",
    )

    def __init__(self, seed: int):
        self.shift = np.random.default_rng([seed, 2]).random(2)

    def setup(self) -> None:
        self.b = import_program()
        self.run(self.input(0))

    def input(self, i: int) -> list[Point]:
        points = []
        for j in range(i * POINTS_PER_OP, (i + 1) * POINTS_PER_OP):
            epsilon, t = r2(self.shift, j)
            points.append(edge_point(self.kinds[j % 4], float(epsilon), float(t)))
        return points

    def run(self, x, tracer=None) -> dict:
        b = self.b
        out = {"points": [], "thresholds": {c: b.find_threshold(c) for c in THRESHOLDS}}
        for _, epsilon, c22 in x:
            point = b.FamilyPoint(epsilon, c22)
            rho = b.bell_diagonal_state(point)
            ensemble = b.conditioned_ancilla(point)
            psi, _ = b.purification(point)
            out["points"].append({
                "rho": rho,
                "info": b.accessible_info(ensemble, b.analytic_povm(point)),
                "hsw": b.hsw_bound(ensemble),
                "concurrence": b.concurrence(rho),
                "table": b.joint_table(rho),
                "reduced": b.partial_trace(np.outer(psi, psi.conj()), (4, 4), keep=0),
                "c22_star": b.max_entropy_c22(epsilon),
            })
        return out

    def check(self, x, out) -> list[str]:
        problems = []
        # criterion 1
        for curve, thr in out["thresholds"].items():
            problems += threshold_problems(curve, thr.epsilon_star, thr.qber)
        for (_, epsilon, c22), got in zip(x, out["points"]):
            problems += [
                # criterion 2
                *gate("accessible_info", abs(got["info"] - mi_eve(c22)), 1e-9),
                # criterion 3, at every feasible point
                *gate("hsw_bound", abs(got["hsw"] - hsw_closed_form(epsilon, c22)), 1e-10),
                # criterion 4
                *gate("joint_table", float(np.max(np.abs(
                    got["table"] - joint_table_closed_form(epsilon)))), 1e-12),
                # criterion 9
                *gate("concurrence", abs(
                    got["concurrence"] - concurrence_closed_form(epsilon, c22)), 1e-9),
                *gate("partial_trace", float(np.max(np.abs(got["reduced"] - got["rho"]))), 1e-10),
                # criterion 8
                *gate("max_entropy_c22", abs(got["c22_star"] + (1 - epsilon) ** 2), 1e-6),
            ]
        return problems

    @classmethod
    def layer_metrics(cls, tracer) -> dict[str, float]:
        out = {}
        for name in cls.layers + ("analysis.max_entropy_c22", "analysis.find_threshold"):
            spans = tracer.select(name, cls.name)
            first = [s for s in spans if s.op < cls.block]
            out[f"{name}.self_s"] = tracing.median_self_s(spans)
            if name in cls.layers:
                out[f"{name}.calls"] = len(first)
            if name == "analysis.find_threshold":
                out[f"{name}.iterations"] = tracing.total(first, "iterations")
        return out


class Oracle:
    """Criterion-6 ``optimize_povm`` calls, one at ε below 0.5 and one above per op.

    A call's cost falls about fourfold from small to large ε and varies
    widely at each ε, so the median of one-call ops moved with the seed by
    about a sixth.  An op of one call in each half of the ε range has a
    narrower cost.  Of every 4 ops, op 1 puts its upper-half call on the
    lower edge (c22 = -1) and op 3 its lower-half call on the upper edge
    (c22 = 2ε-1), so a quarter of the calls lie on the boundary.
    """

    name = "oracle"
    block = 4
    kinds = (
        ("interior", "interior"),
        ("interior", "lower"),
        ("interior", "interior"),
        ("upper", "interior"),
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.shift = rng.random(2)
        self.edge_shift = float(rng.random())

    def setup(self) -> None:
        self.b = import_program()
        self.run(self.input(1)[1:])  # a boundary point: quick, and runs every code path

    def input(self, i: int) -> tuple[Point, Point]:
        points = []
        for half, kind in enumerate(self.kinds[i % self.block]):
            if kind == "interior":  # each half's interior points run through R2 in turn
                slots = [j for j, kinds in enumerate(self.kinds) if kinds[half] == "interior"]
                k = len(slots) * (i // self.block) + slots.index(i % self.block)
                u, t = r2(self.shift + 0.5 * half, k)
            else:  # each edge's points follow the golden-ratio sequence in ε
                u, t = (self.edge_shift + (i // self.block) * 0.6180339887498949) % 1.0, 0.0
            points.append(edge_point(kind, 0.01 + 0.49 * (half + float(u)), float(t)))
        return tuple(points)

    def run(self, x, tracer=None):
        b = self.b
        config = b.OptimizerConfig(**ORACLE_CONFIG)
        return [
            b.optimize_povm(b.conditioned_ancilla(b.FamilyPoint(p.epsilon, p.c22)), config)
            for p in x
        ]

    def check(self, x, results) -> list[str]:
        problems = []
        for point, result in zip(x, results):
            # criterion 6
            gap = result.info - mi_eve(point.c22)
            if not -1e-4 <= gap <= 1e-6:
                problems.append(f"optimizer gap {gap:.3e} outside [-1e-4, 1e-6] at {point}")
        return problems

    @classmethod
    def layer_metrics(cls, tracer) -> dict[str, float]:
        out = {}
        spans = tracer.select("povm.optimize_povm", cls.name)
        calls_per_op = {}
        kind = {}
        for s in spans:  # an op's spans come in the order of its points
            j = calls_per_op[s.op] = calls_per_op.get(s.op, -1) + 1
            kind[s.id] = cls.kinds[s.op % cls.block][j]
        groups = {
            "": spans,
            ".interior": [s for s in spans if kind[s.id] == "interior"],
            ".boundary": [s for s in spans if kind[s.id] != "interior"],
        }
        for suffix, group in groups.items():
            first = [s for s in group if s.op < cls.block]
            key = f"povm.optimize_povm{suffix}"
            out[f"{key}.calls"] = len(first)
            out[f"{key}.self_s"] = tracing.median_self_s(group)
            out[f"{key}.iterations"] = tracing.total(first, "iterations")
            out[f"{key}.s_per_iteration"] = (
                sum(s.self_s for s in group) / tracing.total(group, "iterations")
            )
        return out


class Search:
    """One ``nonsymmetric_search`` call per ε of SEARCH_EPSILONS per op.

    A call costs one optimizer run per accepted draw, and ε sets what a run
    costs, so one-call ops fall into a few widely spaced modes and a run's
    median jumped between them with the seed.  An op of one call per ε is
    their sum, whose distribution has no such gaps.
    """

    name = "search"
    block = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.b = import_program()
        self.b.nonsymmetric_search(SEARCH_EPSILONS[1], 1, self.seed)

    def input(self, i: int) -> tuple[tuple[float, int], ...]:
        seeds = np.random.default_rng([self.seed, 4, i]).integers(2**63, size=len(SEARCH_EPSILONS))
        return tuple(zip(SEARCH_EPSILONS, map(int, seeds)))

    def run(self, x, tracer=None):
        return [self.b.nonsymmetric_search(epsilon, SEARCH_TRIALS, seed) for epsilon, seed in x]

    def check(self, x, reports) -> list[str]:
        problems = []
        for (epsilon, _), report in zip(x, reports):
            # criterion 7
            excess = report.best_value - mi_eve_optimal(epsilon)
            if excess > 1e-4:
                problems.append(f"excess {excess:.3e} > 1e-4 at epsilon={epsilon}")
        return problems

    @classmethod
    def layer_metrics(cls, tracer) -> dict[str, float]:
        key = "analysis.nonsymmetric_search"
        spans = tracer.select(key, cls.name)
        first = [s for s in spans if s.op < cls.block]
        trials, accepted = tracing.total(first, "trials"), tracing.total(first, "accepted")
        return {
            f"{key}.self_s": tracing.median_self_s(spans),
            f"{key}.trials": trials,
            f"{key}.accepted": accepted,
            f"{key}.accept_ratio": accepted / trials,
            f"{key}.s_per_accepted": (
                sum(s.duration_s for s in spans) / tracing.total(spans, "accepted")
            ),
        }


WORKLOADS = {w.name: w for w in (CliCold, ClosedForm, Oracle, Search)}
DEFAULT_SEEDS = {"cli-cold": 1, "closed-form": 4, "oracle": 6, "search": 42}
