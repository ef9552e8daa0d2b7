"""The max-entropy locus and the nonsymmetric-state search.

``max_entropy_c22`` checks the maxent rule of ``curves.C22_RULES``
numerically with Brent's search, and ``nonsymmetric_search`` probes the
symmetry conjecture behind ``curves.mi_eve_optimal``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .config import SEARCH_OPTIMIZER, OptimizerConfig, require_int
from .curves import find_threshold  # noqa: F401  perfbench traces analysis.find_threshold
from .curves import mi_eve_optimal, optimal_c22
from .errors import NotPositive, OutOfRange
from .linalg import von_neumann_entropy
from .povm import optimize_povm
from .states import (
    FamilyPoint,
    bell_diagonal_state,
    conditioned_ancilla_from_state,
    general_state,
)

_GOLDEN = (3 - math.sqrt(5)) / 2
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


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
    optimizer: OptimizerConfig = SEARCH_OPTIMIZER,
) -> SearchReport:
    """Search the seven hidden coefficients for an advantage over the
    symmetric family.

    Trial 0 probes the symmetric optimum itself, physical at every ε, so it
    is always accepted; the rest alternate between uniform draws on
    [-1, 1]^7 and local Gaussian perturbations around the symmetric optimum,
    rejecting unphysical draws.  Every accepted state is purified,
    conditioned on Alice's outcomes, and handed to the POVM optimizer; the
    best value found is reported against the symmetric optimum.  Each trial
    runs ``optimizer`` with its ``seed`` replaced by one drawn from ``seed``.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)

    center = np.zeros(7)
    center[4] = optimal_c22(epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    symmetric = mi_eve_optimal(epsilon)

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
        cfg = replace(optimizer, seed=int(rng.integers(2**63)))
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
