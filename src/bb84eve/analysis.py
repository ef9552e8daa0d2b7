"""The max-entropy locus and the nonsymmetric-state search.

``max_entropy_c22`` checks the maxent rule of ``curves.C22_RULES``
numerically by Newton's method on the entropy's slope along the c22
segment, whose spectrum is the Bell weights, affine in c22, and
``nonsymmetric_search`` probes the symmetry conjecture behind
``curves.mi_eve_optimal``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import config
from .config import require_in, require_int
from .curves import find_threshold  # noqa: F401  perfbench traces analysis.find_threshold
from .curves import _c22_interval, mi_eve_optimal, optimal_c22
from .errors import NotPositive
from .povm import OptimizerConfig, _climb
from .states import (
    _FREE_NAMES,
    AncillaEnsemble,
    _bell_weights,
    conditioned_ancilla_from_state,
    general_state,
)

# max_entropy_c22 stops once its Newton step or its bracket on c22, which
# lies in [-1, 1], is this short: four ulps of 1.
_STEP_TOL = 4 * math.ulp(1.0)

# The optimizer settings of every accepted nonsymmetric_search draw, bar the seed.
SEARCH_OPTIMIZER = OptimizerConfig(restarts=4, max_iterations=300)

# nonsymmetric_search counts the draws within this of the symmetric optimum.
_NEAR_OPTIMUM_WINDOW = 1e-6


def max_entropy_c22(epsilon: float) -> float:
    """The feasible c22 of largest state entropy (concave in c22), found numerically.

    The states on the c22 segment are Bell-diagonal, so their spectrum
    λ(c) is the Bell weights, affine in c22 between those at the segment's
    two ends.  The entropy's slope s'(c) = -Σ_i λ_i'·(ln λ_i(c) + 1) falls
    from +inf at c22 = -1 to -inf at c22 = 2ε - 1.  Its root is found by
    Newton's method on s', falling back to bisection of the bracket
    whenever a Newton step would leave it, and returned once a Newton step
    or the bracket is at most ``_STEP_TOL`` long.
    """
    require_in("epsilon", epsilon, 0, 1)
    lo, hi = _c22_interval(epsilon)
    if hi <= lo:
        return lo
    start, end = (_bell_weights(epsilon, c) for c in (lo, hi))
    slopes = [(e - s) / (hi - lo) for s, e in zip(start, end)]
    a, b = lo, hi  # s' > 0 at a, s' < 0 at b
    c = 0.5 * (a + b)
    while b - a > _STEP_TOL:
        ds = d2s = 0.0
        for w0, k in zip(start, slopes):
            w = w0 + (c - lo) * k
            if w <= 0:  # at an end of the segment: s' is ±inf, no Newton step
                ds, d2s = math.copysign(math.inf, k), math.nan
                break
            ds -= k * (math.log(w) + 1)
            d2s -= k * k / w
        if ds > 0:
            a = c
        elif ds < 0:
            b = c
        else:
            return c
        step = ds / d2s
        if abs(step) <= _STEP_TOL:
            return c - step
        c -= step
        if not a < c < b:  # the step left the bracket, or is NaN
            c = 0.5 * (a + b)
    return c


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the random search over nonsymmetric states.

    ``best_value`` is evidence, not proof: samples within
    ``_NEAR_OPTIMUM_WINDOW`` of the symmetric optimum are counted in
    ``near_optimum_count`` but no conclusion is drawn from them.  It can
    also fall short of the best sampled state's accessible information:
    each restart stops after ``SEARCH_OPTIMIZER.max_iterations``
    iterations, which many restarts reach before they are stationary (124
    of 364 at seed 42, 200 trials, ε = 0.1, 0.25 and 0.4).  A draw's value
    is the best of its restarts, whichever batch of at most
    ``config.MAX_RESTARTS`` restarts they ran in; the batching changes no
    field.
    """

    epsilon: float
    trials: int
    accepted: int
    best_value: float
    best_parameters: tuple[float, ...]
    symmetric_optimum: float
    seed: int
    near_optimum_count: int


def _accepted_draws(
    epsilon: float, trials: int, center: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, tuple[AncillaEnsemble, int]]]:
    """Each physical draw of ``nonsymmetric_search``'s trials, in trial
    order, with its conditioned ensemble and the optimizer seed drawn from
    ``rng`` right after it.  A draw that ``general_state`` or the square
    root rejects is skipped: their eigensolvers can disagree at the cutoff."""
    for trial in range(trials):
        if trial == 0:
            draw = center.copy()
        elif trial % 2:
            draw = np.clip(center + rng.normal(scale=0.05, size=center.size), -1.0, 1.0)
        else:
            draw = rng.uniform(-1.0, 1.0, size=center.size)
        try:
            ensemble = conditioned_ancilla_from_state(general_state(epsilon, *draw))
        except NotPositive:
            continue
        yield draw, (ensemble, int(rng.integers(2**63)))


def nonsymmetric_search(epsilon: float, trials: int, seed: int) -> SearchReport:
    """Search the seven hidden coefficients for an advantage over the
    symmetric family.

    Trial 0 probes the symmetric optimum itself, physical at every ε, so it
    is always accepted; the rest alternate between uniform draws on
    [-1, 1]^7 and local Gaussian perturbations around the symmetric optimum,
    rejecting unphysical draws.  Every accepted state is purified and
    conditioned on Alice's outcomes; its value is what ``optimize_povm``
    with ``SEARCH_OPTIMIZER``, seeded by a draw from ``seed``, would give
    it, bit for bit.  All accepted draws' restarts run as one optimizer
    batch, each restart against its own draw's ensemble; a batch holds at
    most ``config.MAX_RESTARTS`` restarts, further draws starting the next.
    The best value found is reported against the symmetric optimum: the
    search cross-checks a proved reduction (README, "Why the symmetric
    family suffices").  ``trials`` must be an integer in [1,
    ``config.MAX_TRIALS``] and ``seed`` one >= 0, or ``OutOfRange`` is raised.
    """
    require_in("epsilon", epsilon, 0, 1)
    require_int("trials", trials, 1, config.MAX_TRIALS)
    require_int("seed", seed, 0)

    center = np.zeros(len(_FREE_NAMES))
    center[_FREE_NAMES.index("c22")] = optimal_c22(epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    symmetric = mi_eve_optimal(epsilon)

    accepted = 0
    best_value = -np.inf
    best_parameters = tuple(center)
    near_optimum = 0

    restarts, max_iterations = SEARCH_OPTIMIZER.restarts, SEARCH_OPTIMIZER.max_iterations
    draws = _accepted_draws(epsilon, trials, center, rng)
    while batch := list(islice(draws, max(1, config.MAX_RESTARTS // restarts))):
        _, values, _, _ = _climb([run for _, run in batch], restarts, max_iterations)
        for (draw, _), info in zip(batch, values.reshape(-1, restarts).max(axis=1)):
            accepted += 1
            if info > best_value:
                best_value = float(info)
                best_parameters = tuple(float(v) for v in draw)
            if abs(info - symmetric) <= _NEAR_OPTIMUM_WINDOW:
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
