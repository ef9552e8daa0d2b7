"""Mutual information of joint tables, the collective-readout bound of an
ensemble, and entanglement measures of two-qubit states.

Everything is in bits.  The scalar information curves live in ``curves``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized
from .linalg import MAX_ENTRY, sqrt_psd, von_neumann_entropy
from .states import _SIGMA_YY, NORMALIZATION_SLACK, AncillaEnsemble, FamilyPoint
from .states import two_qubit_operator


def mutual_information(table: np.ndarray) -> float:
    """Shannon mutual information of a joint probability table, in bits.

    Zero entries contribute zero, as do entries whose marginal product
    underflows to 0.  Raises ``NotNormalized`` for an array of complex
    numbers, text, bytes or objects, ``DimensionMismatch`` unless the table
    is 2-D, and ``NotNormalized`` unless all entries lie in [0,
    ``linalg.MAX_ENTRY``] and sum to 1 within ``NORMALIZATION_SLACK``.
    """
    p = np.asarray(table)
    if p.dtype.kind not in "biuf":
        raise NotNormalized(f"table must be an array of real numbers, not of dtype {p.dtype}")
    if p.ndim != 2:
        raise DimensionMismatch(f"shape {p.shape} is not a 2-D table")
    if np.any((p < 0) | (p > MAX_ENTRY)):  # before the cast, which a huge longdouble overflows
        raise NotNormalized(f"entries from {p.min():.3e} to {p.max():.3e} are not probabilities")
    return _mutual_information(p.astype(float, copy=False))


def _mutual_information(p: np.ndarray) -> float:
    """``mutual_information`` of a real 2-D float table with no negative
    entry; only its sum is checked."""
    total = p.sum()
    if not abs(total - 1.0) <= NORMALIZATION_SLACK:  # NaN fails too
        raise NotNormalized(f"entries sum to {float(total)}, not 1")
    marg = p.sum(axis=1)[:, None] * p.sum(axis=0)
    # marg underflows to 0 only where p² < 2**-1075: that term is below 2**-528 bits
    mask = (p > 0) & (marg > 0)
    return float((p[mask] * np.log2(p[mask] / marg[mask])).sum())


def hsw_bound(ensemble: AncillaEnsemble) -> float:
    """Holevo-type upper bound on collective readout of an ensemble.

    S(average state) minus the average member entropy, every state of
    weight 1/n; the n + 1 entropies come from one stacked eigensolve.
    """
    states = ensemble.states
    s = von_neumann_entropy(np.concatenate(([states.sum(axis=0) / len(states)], states)))
    return float(s[0] - s[1:].sum() / len(states))


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
    s = np.linalg.svd(root.T @ _SIGMA_YY @ root, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))

