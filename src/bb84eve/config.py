"""Size limits, the optimizer's default restart count, and the interval and
integer checks.

The command-line parser reads these for its flag bounds and defaults.  They
need neither numpy nor ``dataclasses``, so ``thresholds`` and ``scan`` start
without either; the optimizer's settings are ``povm.OptimizerConfig``.
"""

from __future__ import annotations

from numbers import Integral

from .errors import OutOfRange

# The whole restart batch is held in memory, each restart with its own
# ensemble: peak RSS grows about 32 KiB per restart (1000 restarts, 100
# iterations, ε = 0.3, c22 = −0.5).  This bounds an optimize_povm call's
# batch and each nonsymmetric_search batch.
MAX_RESTARTS = 1000
DEFAULT_RESTARTS = 8
# A nonsymmetric_search trial costs 1.3–3.6 ms (ε = 0.1 to 0.4, 1000
# trials, one BLAS thread, 2-core x86-64 VM), so this many take up to about
# an hour; memory stays bounded at any count, so the bound is on run time.
MAX_TRIALS = 10**6
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
