"""Dense complex-matrix kernel: eigendecomposition, partial trace, entropy.

Operators are plain numpy arrays.  All entropies and informations produced
by this package are in bits (logarithms base 2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-10
# Eigenvalues in [-NEGATIVE_EIGENVALUE_TOL, 0) are floating-point noise at
# rank-deficient points and are treated as exact zeros.
NEGATIVE_EIGENVALUE_TOL = 1e-10
ENTROPY_CUTOFF = 1e-14

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


class Spectrum(NamedTuple):
    """Hermitian eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a stack (..., d, d)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 for a matrix or a stack (..., d, d) that passes the checks:
    finite entries and a Hermiticity defect of at most ``HERMITICITY_TOL``."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    adj = dagger(m)
    defect = np.abs(m - adj).max()
    if defect > HERMITICITY_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e}"
        )
    return (m + adj) / 2


def eig_hermitian(m: np.ndarray) -> Spectrum:
    """Eigendecompose a Hermitian matrix.

    The input is symmetrized to (m + m†)/2 before solving, but only once it
    has passed the Hermiticity check; a genuinely non-Hermitian input raises
    ``NotHermitian`` instead of being silently repaired.
    """
    w, v = np.linalg.eigh(_hermitian_part(m))
    order = np.argsort(w)[::-1]
    return Spectrum(w[order], v[:, order])


def square_stack(m) -> np.ndarray:
    """``m`` as a complex stack (n, d, d) of n >= 1 square matrices."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or not len(m):
        raise DimensionMismatch(f"shape {m.shape} is not a stack (n, d, d), n >= 1")
    return m


def dyads(kets: np.ndarray) -> np.ndarray:
    """The rank-one operators |k⟩⟨k|, one for each row k of ``kets``."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on H_A ⊗ H_B.

    ``dims`` is (dim_A, dim_B); ``keep`` selects the surviving factor,
    0 for the first, 1 for the second.
    """
    m = np.asarray(m)
    da, db = dims
    if m.ndim != 2 or m.shape != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not factor as {da}x{db}"
        )
    if keep not in (0, 1):
        raise DimensionMismatch("keep must be 0 (first factor) or 1 (second)")
    t = m.reshape(da, db, da, db)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy -tr(ρ log2 ρ) in bits, with 0·log 0 := 0.

    Takes one density operator, or a stack (..., d, d) of them and returns
    one entropy per matrix.  Every matrix must be finite, Hermitian within
    ``HERMITICITY_TOL`` and have no eigenvalue below
    -``NEGATIVE_EIGENVALUE_TOL``.
    """
    w = np.linalg.eigvalsh(_hermitian_part(rho))
    smallest = w.min()
    if smallest < -NEGATIVE_EIGENVALUE_TOL:
        raise ValueError(
            f"not a density operator: smallest eigenvalue {smallest:.3e}"
        )
    w = np.where(w > ENTROPY_CUTOFF, w, 1.0)  # log2(1) = 0 drops the term
    s = -(w * np.log2(w)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def bell_basis() -> np.ndarray:
    """The four Bell kets as rows, the singlet first.

    Single-qubit component order is (z+, z-); the two-qubit index is
    Alice ⊗ Bob.  Rows are pairwise orthonormal.
    """
    s = 1 / np.sqrt(2)
    return np.array(
        [
            [0, s, -s, 0],
            [0, s, s, 0],
            [s, 0, 0, s],
            [s, 0, 0, -s],
        ],
        dtype=complex,
    )
