"""Threshold root-finding, curve scans, the max-entropy locus, and the
nonsymmetric-state search.

Four named curves describe Eve's information as a function of the noise:

==========  =====================================================
honest      c22 = -(1-ε), forced when full tomography is possible
maxent      c22 = -(1-ε)², the entropy-maximizing state
minconc     feasibility-clipped minimizer of |c22| (best raw-data attack)
hsw         collective-readout bound along the max-entropy locus
==========  =====================================================

The first three are c22 rules (``C22_RULES``); ``hsw`` has its own functional.
``max_entropy_c22`` checks the maxent rule numerically with Brent's search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoSignChange, NotPositive, OutOfRange
from .infotheory import (
    hsw_optimal,
    mi_alice_bob,
    mi_eve_analytic,
    mi_eve_optimal,
    optimal_c22,
)
from .linalg import von_neumann_entropy
from .povm import OptimizerConfig, optimize_povm
from .states import (
    FamilyPoint,
    bell_diagonal_state,
    conditioned_ancilla_from_state,
    general_state,
)

MAX_BISECTIONS = 64

C22_RULES: dict[str, Callable[[float], float]] = {
    "honest": lambda epsilon: -(1 - epsilon),
    "maxent": lambda epsilon: -((1 - epsilon) ** 2),
    "minconc": optimal_c22,
}
CURVES = (*C22_RULES, "hsw")


def eve_curve(curve: str, epsilon: float) -> float:
    """Eve's information along a named curve, for ε in the plot range [0, 1/2]."""
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; expected one of {sorted(CURVES)}")
    if not 0.0 <= epsilon <= 0.5:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1/2]")
    if curve == "hsw":
        return hsw_optimal(epsilon)
    return mi_eve_analytic(C22_RULES[curve](epsilon))


def key_rate(epsilon: float, curve: str) -> float:
    """Distillable key rate I_AB - I_AE along a named curve; may be negative.

    The sign change of this quantity locates the security threshold.
    """
    return mi_alice_bob(epsilon) - eve_curve(curve, epsilon)


@dataclass(frozen=True)
class ThresholdResult:
    """A bisection root; ``converged`` says whether ``residual`` met the
    tolerance, ``bracket_width`` is the final bracket's width."""

    curve: str
    epsilon_star: float
    residual: float
    iterations: int
    converged: bool
    bracket_width: float

    @property
    def qber(self) -> float:
        return self.epsilon_star / 2


def bisect_sign_change(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tolerance: float,
) -> tuple[float, float, int, bool, float]:
    """Bisection on a sign change of ``f`` over [lo, hi].

    Returns (root, |f(root)|, iterations, converged, bracket width):
    ``converged`` says whether |f(root)| <= ``tolerance``, and the width is
    that of the last bracket around the root (0 for an exact root at an
    end).  The bracket is validated before iterating; ``NoSignChange`` is
    raised if both ends share a sign.
    Bisection is used deliberately: the information curves have divergent
    slope near the branch points and robustness beats speed here.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0.0, 0, True, 0.0
    if fhi == 0.0:
        return hi, 0.0, 0, True, 0.0
    if np.sign(flo) == np.sign(fhi):
        raise NoSignChange(
            f"f({lo})={flo:.3e} and f({hi})={fhi:.3e} have the same sign"
        )
    mid, fmid, it = lo, flo, 0
    for it in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tolerance:
            break
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return mid, abs(fmid), it, abs(fmid) <= tolerance, hi - lo


def find_threshold(curve: str, tolerance: float = 1e-9) -> ThresholdResult:
    """Noise value where Alice-Bob information crosses Eve's curve."""
    if not 1e-12 <= tolerance <= 1e-3:
        raise OutOfRange(f"tolerance={tolerance} outside [1e-12, 1e-3]")
    root, residual, iterations, converged, width = bisect_sign_change(
        lambda epsilon: key_rate(epsilon, curve), 0.0, 0.5, tolerance
    )
    return ThresholdResult(curve, root, residual, iterations, converged, width)


_GOLDEN = (3 - math.sqrt(5)) / 2
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _brent_argmax(
    f: Callable[[float], float], a: float, b: float, tolerance: float = 1e-8
) -> float:
    """Maximizer of a unimodal ``f`` on [a, b] by Brent's method: parabolic
    steps with a golden-section fallback (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5), to within √eps·|x| + ``tolerance``.
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tolerance / 3
        if abs(x - m) <= 2 * tol1 - 0.5 * (b - a):
            return x
        p = q = r = 0.0
        if abs(e) > tol1:  # parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2 * tol1 or b - x - d < 2 * tol1:
                d = tol1 if x < m else -tol1
        else:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def max_entropy_c22(epsilon: float) -> float:
    """Numerically maximize the state entropy (concave in c22) over the feasible c22."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    lo, hi = -1.0, 2 * epsilon - 1
    if hi - lo < 1e-9:
        return -1.0

    def entropy(c22: float) -> float:
        return von_neumann_entropy(bell_diagonal_state(FamilyPoint(epsilon, c22)))

    return _brent_argmax(entropy, lo, hi)


class ScanRow(NamedTuple):
    epsilon: float
    i_ab: float
    i_honest: float
    i_maxent: float
    i_minconc: float
    i_hsw: float


def scan_curves(grid) -> list[ScanRow]:
    """Evaluate all five information curves on an ε grid within [0, 1/2]."""
    rows = []
    for epsilon in grid:
        epsilon = float(epsilon)
        rows.append(
            ScanRow(
                epsilon=epsilon,
                i_ab=mi_alice_bob(epsilon),
                i_honest=eve_curve("honest", epsilon),
                i_maxent=eve_curve("maxent", epsilon),
                i_minconc=eve_curve("minconc", epsilon),
                i_hsw=eve_curve("hsw", epsilon),
            )
        )
    return rows


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the random search over nonsymmetric states.

    ``best_value`` is evidence, not proof: samples within 1e-6 of the
    symmetric optimum are counted in ``near_optimum_count`` but no
    conclusion is drawn from them.
    """

    epsilon: float
    trials: int
    accepted: int
    best_value: float
    best_parameters: tuple[float, ...]
    symmetric_optimum: float
    seed: int
    near_optimum_count: int


def nonsymmetric_search(
    epsilon: float,
    trials: int,
    seed: int,
    optimizer: OptimizerConfig | None = None,
) -> SearchReport:
    """Search the seven hidden coefficients for an advantage over the
    symmetric family.

    Trial 0 probes the symmetric optimum itself, physical at every ε, so it
    is always accepted; the rest alternate between uniform draws on
    [-1, 1]^7 and local Gaussian perturbations around the symmetric optimum,
    rejecting unphysical draws.  Every accepted state is purified,
    conditioned on Alice's outcomes, and handed to the POVM optimizer; the
    best value found is reported against the symmetric optimum.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    if trials < 1:
        raise OutOfRange(f"trials={trials} must be >= 1")
    if seed < 0:
        raise OutOfRange(f"seed={seed} must be >= 0")

    center = np.zeros(7)
    center[4] = optimal_c22(epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    symmetric = mi_eve_optimal(epsilon)
    base_cfg = optimizer or OptimizerConfig(restarts=4, max_iterations=300)

    accepted = 0
    best_value = -np.inf
    best_parameters = tuple(center)
    near_optimum = 0

    for trial in range(trials):
        if trial == 0:
            draw = center.copy()
        elif trial % 2:
            draw = np.clip(center + rng.normal(scale=0.05, size=7), -1.0, 1.0)
        else:
            draw = rng.uniform(-1.0, 1.0, size=7)
        try:
            rho = general_state(epsilon, *draw)
        except NotPositive:
            continue
        accepted += 1
        ensemble = conditioned_ancilla_from_state(rho)
        cfg = replace(base_cfg, seed=int(rng.integers(2**63)))
        result = optimize_povm(ensemble, cfg)
        if result.info > best_value:
            best_value = result.info
            best_parameters = tuple(float(v) for v in draw)
        if abs(result.info - symmetric) <= 1e-6:
            near_optimum += 1

    return SearchReport(
        epsilon=epsilon,
        trials=trials,
        accepted=accepted,
        best_value=float(best_value),
        best_parameters=best_parameters,
        symmetric_optimum=symmetric,
        seed=seed,
        near_optimum_count=near_optimum,
    )
