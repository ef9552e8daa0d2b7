"""Closed-form information functionals and entanglement measures.

Everything is in bits.  The central building block is ``correlation_info``,
the mutual information carried by a binary symmetric pair with correlation
x; the Alice-Bob and Alice-Eve curves are scaled evaluations of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, OutOfRange
from .linalg import SIGMA_Y, sqrt_psd, von_neumann_entropy
from .states import AncillaEnsemble, FamilyPoint, two_qubit_operator

_YY = np.kron(SIGMA_Y, SIGMA_Y)


def correlation_info(x: float) -> float:
    """(1/2)[(1-x)log2(1-x) + (1+x)log2(1+x)] on [0, 1].

    Monotone increasing and convex, with value 0 at x=0 and 1 at x=1
    (the x=1 limit is taken explicitly so thresholds near the branch
    point never see NaN).
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"x={x} outside [0, 1]")
    low = 0.0 if x == 1.0 else 0.5 * (1 - x) * math.log2(1 - x)
    return low + 0.5 * (1 + x) * math.log2(1 + x)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p={p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def mi_alice_bob(epsilon: float) -> float:
    """Mutual information per pair between Alice and Bob on the raw data."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    return 0.5 * correlation_info(1 - epsilon)


def mi_eve_analytic(c22: float) -> float:
    """Eve's accessible information for a given c22, independent of ε.

    Even in c22, maximal (1/2 bit) at c22 = 0, zero at c22 = ±1.
    """
    if not -1.0 <= c22 <= 1.0:
        raise OutOfRange(f"c22={c22} outside [-1, 1]")
    return 0.5 * correlation_info(math.sqrt(max(0.0, 1 - c22 * c22)))


def optimal_c22(epsilon: float) -> float:
    """The feasible c22 of smallest magnitude: -(1-2ε) for ε <= 1/2, else 0."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    return 2 * epsilon - 1 if epsilon <= 0.5 else 0.0


def mi_eve_optimal(epsilon: float) -> float:
    """Eve's accessible information after optimizing c22.

    Equals (1/2)·correlation_info(2√(ε(1-ε))) below ε = 1/2 and saturates
    at 1/2 bit beyond; continuous at the branch junction.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    if epsilon >= 0.5:
        return 0.5
    return 0.5 * correlation_info(2 * math.sqrt(epsilon * (1 - epsilon)))


def mutual_information(table: np.ndarray) -> float:
    """Shannon mutual information of a joint probability table, in bits.

    Zero entries contribute zero.  Raises ``NotNormalized`` unless all
    entries are nonnegative and sum to 1 within 1e-9.
    """
    p = np.asarray(table, dtype=float)
    if np.any(p < 0):
        raise NotNormalized(f"negative entry {p.min():.3e}")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"entries sum to {total!r}, not 1")
    marg = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = p > 0
    return float((p[mask] * np.log2(p[mask] / marg[mask])).sum())


def hsw_bound(ensemble: AncillaEnsemble) -> float:
    """Holevo-type upper bound on collective readout of an ensemble.

    S(average state) minus the prior-weighted average member entropy.
    """
    s = von_neumann_entropy(np.insert(ensemble.states, 0, ensemble.average_state(), 0))
    return float(s[0] - ensemble.priors @ s[1:])


def hsw_optimal(epsilon: float) -> float:
    """The collective-readout bound at the entropy-maximizing c22."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    return 1.0 - correlation_info(1 - epsilon)


@dataclass(frozen=True)
class EntanglementNumbers:
    """Degree of separability and concurrence; they sum to 1 on this family."""

    separability: float
    concurrence: float


def entanglement_numbers(point: FamilyPoint) -> EntanglementNumbers:
    """Closed-form separability and concurrence of the symmetric state."""
    e, c = point.epsilon, point.c22
    separability = min(1.0, e + 0.5 * (1 + c))
    con = max(0.0, 0.5 * (1 - c) - e)
    return EntanglementNumbers(separability=separability, concurrence=con)


def concurrence(rho: np.ndarray) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit state.

    Independent cross-check for the closed form above.  The usual
    √eigenvalues of ρ·(σy⊗σy)·ρ*·(σy⊗σy) are evaluated as the singular
    values of √ρᵀ·(σy⊗σy)·√ρ, which sidesteps the square root of
    near-zero eigenvalues and keeps absolute errors at machine level.
    Raises ``NotPositive`` as ``sqrt_psd`` does.
    """
    root = sqrt_psd(two_qubit_operator(rho))
    s = np.linalg.svd(root.T @ _YY @ root, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))

