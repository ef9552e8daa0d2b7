"""The optimizer's knobs, sample limits, and the interval and integer checks.

The command-line parser reads these for its flag bounds and defaults, and
none of them needs numpy, so they live apart from the numeric modules.
``nonsymmetric_search`` runs fixed settings, ``analysis.SEARCH_OPTIMIZER``,
that no flag or argument changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .errors import OutOfRange

# The whole restart batch is held in memory, each restart with its own
# ensemble: peak RSS grows about 32 KiB per restart (1000 restarts, 100
# iterations, ε = 0.3, c22 = −0.5).  This bounds an optimize_povm call's
# batch and each nonsymmetric_search batch.
MAX_RESTARTS = 1000
MAX_SAMPLES = 2**63 - 1  # the largest count numpy's multinomial accepts


def require_in(name: str, value, lo, hi) -> None:
    """Raise ``OutOfRange`` unless ``lo <= value <= hi``; NaN never is."""
    if not lo <= value <= hi:
        raise OutOfRange(f"{name}={value} outside [{lo}, {hi}]")


def require_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ``OutOfRange`` unless ``value`` is an integer, not a bool, that
    is at least ``lo`` and, if ``hi`` is given, at most ``hi``."""
    if (
        not isinstance(value, Integral)
        or isinstance(value, bool)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise OutOfRange(f"{name}={value!r} must be an integer {bound}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the numerical search; defaults suit four-state ensembles.

    ``restarts`` lies in [1, ``MAX_RESTARTS``].  A restart stops once its
    tangent gradient's norm is at most ``povm.STATIONARY_TOL``, or after
    ``max_iterations`` (>= 1) iterations.  ``seed`` is >= 0.  Construction
    raises ``OutOfRange`` for any other value.  The outcome count is not a
    knob: each measurement has d² rank-one outcomes, d the dimension of the
    ensemble's states, and these attain the accessible information
    (Davies, IEEE TIT 24, 596, 1978).
    """

    restarts: int = 8
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        require_int("restarts", self.restarts, 1, MAX_RESTARTS)
        require_int("max_iterations", self.max_iterations, 1)
        require_int("seed", self.seed, 0)
