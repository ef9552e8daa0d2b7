"""The paper's scalar closed forms: information curves, key rates and
thresholds, in pure Python.

Everything is in bits.  The central building block is ``correlation_info``,
the mutual information carried by a binary symmetric pair with correlation
x; the Alice-Bob and Alice-Eve curves are scaled evaluations of it.

Four named curves describe Eve's information as a function of the noise:

==========  =====================================================
honest      c22 = -(1-ε), forced when full tomography is possible
maxent      c22 = -(1-ε)², the entropy-maximizing state
minconc     feasibility-clipped minimizer of |c22| (best raw-data attack)
hsw         collective-readout bound along the max-entropy locus
==========  =====================================================

The first three are c22 rules (``C22_RULES``); ``hsw`` has its own functional.
Each public function checks its arguments, then calls its unchecked twin
``_name``, which holds the formula; the curves, key rates and thresholds are
composed from the twins, so each argument is checked once per public call.
This module imports no numpy, so the ``thresholds`` and ``scan`` commands
start without it; ``analysis.max_entropy_c22`` checks the maxent rule
numerically.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable
from numbers import Real

from .config import require_in
from .errors import NoSignChange, OutOfRange

MAX_BISECTIONS = 64
_LN2 = math.log(2)


def correlation_info(x: float) -> float:
    """(1/2)[(1-x)log2(1-x) + (1+x)log2(1+x)] on [0, 1].

    Monotone increasing and convex, with value 0 at x=0 and 1 at x=1
    (the x=1 limit is taken explicitly so thresholds near the branch
    point never see NaN).  Below x = 1/2 the two terms nearly cancel, and
    the equal form x·atanh(x) + (1/2)·ln(1-x²), over ln 2, is used instead:
    it keeps the relative error at roundoff as x -> 0.
    """
    require_in("x", x, 0, 1)
    return _correlation_info(x)


def _correlation_info(x: float) -> float:
    if x < 0.5:
        return (x * math.atanh(x) + 0.5 * math.log1p(-x * x)) / _LN2
    low = 0.0 if x == 1.0 else 0.5 * (1 - x) * math.log2(1 - x)
    return low + 0.5 * (1 + x) * math.log2(1 + x)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p."""
    require_in("p", p, 0, 1)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def mi_alice_bob(epsilon: float) -> float:
    """Mutual information per pair between Alice and Bob on the raw data."""
    require_in("epsilon", epsilon, 0, 1)
    return _mi_alice_bob(epsilon)


def _mi_alice_bob(epsilon: float) -> float:
    return 0.5 * _correlation_info(1 - epsilon)


def mi_eve_analytic(c22: float) -> float:
    """Eve's accessible information for a given c22, independent of ε.

    Even in c22, maximal (1/2 bit) at c22 = 0, zero at c22 = ±1.
    """
    require_in("c22", c22, -1, 1)
    return _mi_eve_analytic(c22)


def _mi_eve_analytic(c22: float) -> float:
    return 0.5 * _correlation_info(math.sqrt((1 - c22) * (1 + c22)))


def optimal_c22(epsilon: float) -> float:
    """The feasible c22 of smallest magnitude: -(1-2ε) for ε <= 1/2, else 0."""
    require_in("epsilon", epsilon, 0, 1)
    return _optimal_c22(epsilon)


def _optimal_c22(epsilon: float) -> float:
    return min(_c22_interval(epsilon)[1], 0.0)


def mi_eve_optimal(epsilon: float) -> float:
    """Eve's accessible information after optimizing c22.

    Equals (1/2)·correlation_info(2√(ε(1-ε))) below ε = 1/2 and saturates
    at 1/2 bit beyond; continuous at the branch junction.
    """
    require_in("epsilon", epsilon, 0, 1)
    if epsilon >= 0.5:
        return 0.5
    return 0.5 * _correlation_info(2 * math.sqrt(epsilon * (1 - epsilon)))


def hsw_optimal(epsilon: float) -> float:
    """The collective-readout bound at the entropy-maximizing c22."""
    require_in("epsilon", epsilon, 0, 1)
    return _hsw_optimal(epsilon)


def _hsw_optimal(epsilon: float) -> float:
    return 1.0 - _correlation_info(1 - epsilon)


def _c22_interval(epsilon: float) -> tuple[float, float]:
    """The bounds of the symmetric family's c22 at noise ε: the state is
    positive exactly when -1 <= c22 <= 2ε - 1.  Unchecked; NaN in, NaN out."""
    return -1.0, 2 * epsilon - 1


# The rules take ε in [0, 1/2] unchecked: each caller checks it once.
C22_RULES: dict[str, Callable[[float], float]] = {
    "honest": lambda epsilon: -(1 - epsilon),
    "maxent": lambda epsilon: -((1 - epsilon) ** 2),
    "minconc": _optimal_c22,
}
CURVES = (*C22_RULES, "hsw")


def _require_curve(curve: str) -> None:
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; expected one of {sorted(CURVES)}")


def eve_curve(curve: str, epsilon: float) -> float:
    """Eve's information along a named curve, for ε in the plot range [0, 1/2]."""
    _require_curve(curve)
    require_in("epsilon", epsilon, 0, 0.5)
    return _eve_curve(curve, epsilon)


def _eve_curve(curve: str, epsilon: float) -> float:
    if curve == "hsw":
        return _hsw_optimal(epsilon)
    return _mi_eve_analytic(C22_RULES[curve](epsilon))


def key_rate(epsilon: float, curve: str) -> float:
    """Distillable key rate I_AB - I_AE along a named curve, for ε in
    [0, 1/2]; may be negative.

    The sign change of this quantity locates the security threshold.
    """
    _require_curve(curve)
    require_in("epsilon", epsilon, 0, 0.5)
    return _key_rate(epsilon, curve)


def _key_rate(epsilon: float, curve: str) -> float:
    return _mi_alice_bob(epsilon) - _eve_curve(curve, epsilon)


class ThresholdResult(namedtuple(
    "ThresholdResult", "curve epsilon_star residual iterations converged bracket_width"
)):
    """A root bracketed to the last float; ``converged`` says whether the
    bracket collapsed, ``residual`` is |key rate| at the root,
    ``bracket_width`` is 0 or one ulp."""

    __slots__ = ()

    @property
    def qber(self) -> float:
        return self.epsilon_star / 2


def bisect_sign_change(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, int, bool, float]:
    """The ITP method on a sign change of ``f`` over [lo, hi], run until the
    bracket cannot shrink.

    Returns (root, |f(root)|, iterations, converged, bracket width): the root
    is the end of the last bracket with the smaller |f|, and ``converged``
    says whether, within ``MAX_BISECTIONS``, the ends became adjacent floats
    or f hit an exact zero (width 0).  The bracket is validated before
    iterating: ``OutOfRange`` is raised unless both ends are finite and
    lo <= hi, ``NoSignChange`` if both ends share a sign.
    Each step tries the regula-falsi point, moved toward the midpoint by
    0.2·width²/(hi - lo) and kept within a shrinking distance of it
    (Oliveira and Takahashi, ACM Trans. Math. Softw. 47(1), art. 5, 2021).
    So a smooth f converges superlinearly, and no f, not even a curve of
    divergent slope near a branch point, takes more than one step beyond
    bisection's worst case.
    """
    require_in("lo", lo, -sys.float_info.max, hi)  # NaN fails either check
    require_in("hi", hi, lo, sys.float_info.max)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0.0, 0, True, 0.0
    if fhi == 0.0:
        return hi, 0.0, 0, True, 0.0
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(
            f"f({lo})={flo:.3e} and f({hi})={fhi:.3e} have the same sign"
        )
    # Step j may stray from the midpoint by ε·2^(n_max - j) - width/2, with ε
    # half an ulp of the larger end.  An overflowing width gets n_max = 0,
    # which leaves no room at any step: plain bisection.
    width = hi - lo
    ulp = math.ulp(max(-lo, hi))
    n_max = math.ceil(math.log2(width / ulp)) + 1 if width < math.inf else 0
    kappa1 = 0.2 / width
    for it in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if mid == lo or mid == hi:  # the ends are adjacent floats
            break
        width = hi - lo
        reach = ulp * 2.0 ** (n_max - it) - 0.5 * width  # j = it - 1
        x = mid
        if reach > 0.0:
            falsi = (lo * fhi - hi * flo) / (fhi - flo)  # NaN if an f is not finite
            sigma = math.copysign(1.0, mid - falsi)
            delta = kappa1 * width * width
            x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
            if abs(x - mid) > reach:
                x = mid - sigma * reach
            if not lo < x < hi:  # NaN included
                x = mid
        fx = f(x)
        if fx == 0.0:
            return x, 0.0, it, True, 0.0
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    root, froot = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    return root, abs(froot), it, 0.5 * lo + 0.5 * hi in (lo, hi), hi - lo


def find_threshold(curve: str) -> ThresholdResult:
    """Noise value where Alice-Bob information crosses Eve's curve, bracketed
    on [0, 1/2] to the last float by ``bisect_sign_change``.

    ``curve`` is checked once; the root finder evaluates ``key_rate``'s
    unchecked twin, since every point it tries lies in [0, 1/2].
    """
    _require_curve(curve)
    root, residual, iterations, converged, width = bisect_sign_change(
        lambda epsilon: _key_rate(epsilon, curve), 0.0, 0.5
    )
    return ThresholdResult(curve, root, residual, iterations, converged, width)


def scan_curves(grid) -> list[tuple[float, ...]]:
    """Evaluate all five information curves on an ε grid within [0, 1/2].

    Each row is (ε, I_AB, then Eve's information on each ``CURVES`` entry in
    order: honest, maxent, minconc, hsw).  Each ε is checked once: an entry
    that is not a real number (text, complex, an array, ``None``) or is a
    bool raises ``OutOfRange``, as an ε not in [0, 1/2] does.
    """
    rows = []
    for e in grid:
        if not isinstance(e, Real) or isinstance(e, bool):
            raise OutOfRange(f"epsilon={e!r} is not a real number")
        e = float(e)
        require_in("epsilon", e, 0, 0.5)
        rows.append((e, _mi_alice_bob(e), *(_eve_curve(curve, e) for curve in CURVES)))
    return rows
