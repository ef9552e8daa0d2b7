"""Dense complex-matrix kernel: eigendecomposition, square root, partial
trace, entropy.

Operators are plain numpy arrays.  All entropies and informations produced
by this package are in bits (logarithms base 2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import require_int
from .errors import DimensionMismatch, NotHermitian, NotPositive, OutOfRange

HERMITICITY_TOL = 1e-10
# The package's one roundoff zero: an eigenvalue or Bell weight within this of
# 0 is exactly 0, and one below its negative is not positive.
EIGENVALUE_CUTOFF = 1e-14
# The largest magnitude a matrix entry may have: a product of two entries
# stays below 1e300, so no sum, square or eigensolve of one overflows to inf
# or NaN.  A numpy float, so a float16 array is compared with it in float64.
MAX_ENTRY = np.float64(1e150)

PAULI = np.array(  # σ_0 = I, σ_x, σ_y, σ_z
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


class Spectrum(NamedTuple):
    """Hermitian eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def require_finite(m, dtype=None) -> np.ndarray:
    """``m`` as an array of ``dtype``; raises ``ValueError`` unless every
    entry is a number of magnitude at most ``MAX_ENTRY``: on NaN, an
    infinity, a larger entry, and an array of text, bytes or objects."""
    m = np.asarray(m)
    if m.dtype.kind not in "biufc" or not np.abs(m).max(initial=0.0) <= MAX_ENTRY:
        raise ValueError(f"matrix entries must be finite numbers of magnitude <= {MAX_ENTRY:g}")
    return m if dtype is None else m.astype(dtype, copy=False)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 for a matrix or a non-empty stack (..., d, d), d >= 1, with
    a Hermiticity defect of at most ``HERMITICITY_TOL`` (else
    ``NotHermitian``); any other shape raises ``DimensionMismatch``.

    ``m`` is a complex array that has passed ``require_finite``.  Each caller
    runs that check once, before any shape test, so a bad entry raises
    ``ValueError`` whatever the shape, and no entry above ``MAX_ENTRY``
    reaches the subtraction or the sum below, where it could overflow.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not m.size:
        raise DimensionMismatch(f"shape {m.shape} is not a square matrix or a stack")
    adj = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - adj).max()
    if defect > HERMITICITY_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e}"
        )
    return (m + adj) / 2


def eig_hermitian(m: np.ndarray) -> Spectrum:
    """Eigendecompose one Hermitian matrix; any other shape raises ``DimensionMismatch``.

    The input is symmetrized to (m + m†)/2 before solving, but only once it
    has passed the Hermiticity check; a genuinely non-Hermitian input raises
    ``NotHermitian`` instead of being silently repaired.
    """
    m = require_finite(m, complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"shape {m.shape} is not one square matrix")
    w, v = np.linalg.eigh(_hermitian_part(m))  # ascending, as LAPACK returns it
    return Spectrum(w[::-1], v[:, ::-1])


def require_psd(eigenvalues: np.ndarray) -> None:
    """Raise ``NotPositive`` if an eigenvalue is below -``EIGENVALUE_CUTOFF``
    or is NaN."""
    smallest = eigenvalues.min()
    if not smallest >= -EIGENVALUE_CUTOFF:
        raise NotPositive(
            f"not positive semidefinite: smallest eigenvalue {smallest:.6e}",
            min_eigenvalue=float(smallest),
        )


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """The positive square root of a matrix that passes ``require_psd``;
    eigenvalues at or below ``EIGENVALUE_CUTOFF`` are rooted as zeros."""
    lam, vecs = eig_hermitian(m)
    require_psd(lam)
    amps = np.sqrt(np.where(lam > EIGENVALUE_CUTOFF, lam, 0.0))
    return (vecs * amps) @ vecs.conj().T


def square_stack(m) -> np.ndarray:
    """``m`` as a complex stack (n, d, d) of n >= 1 square matrices with
    d >= 1; raises like ``require_finite`` on an entry it refuses."""
    m = require_finite(m, complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or not m.size:
        raise DimensionMismatch(f"shape {m.shape} is not a stack (n, d, d), n, d >= 1")
    return m


def dyads(kets: np.ndarray) -> np.ndarray:
    """The rank-one operators |k⟩⟨k|, one for each row k of ``kets``."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on H_A ⊗ H_B.

    ``dims`` is (dim_A, dim_B), two integers >= 1, else ``DimensionMismatch``;
    ``keep`` selects the surviving factor, the integer 0 for the first, 1 for
    the second, else ``DimensionMismatch``.
    Raises ``ValueError`` on an entry that ``require_finite`` refuses.
    """
    m = require_finite(m)
    try:
        da, db = dims
    except (TypeError, ValueError):  # None, an int, a 0-d array, three dims
        da = db = 0
    try:
        for n in (da, db):
            require_int("dims", n, 1)
        require_int("keep", keep, 0, 1)
    except OutOfRange as exc:
        raise DimensionMismatch(f"dims={dims!r}, keep={keep!r}: {exc}") from None
    da, db = int(da), int(db)  # a numpy-integer product could overflow
    if m.ndim != 2 or m.shape != (da * db, da * db):
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not factor as {da}x{db}"
        )
    return np.trace(m.reshape(da, db, da, db), axis1=1 - keep, axis2=3 - keep)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy -tr(ρ log2 ρ) in bits, with 0·log 0 := 0.

    Takes one density operator or a stack (..., d, d) of them, any other
    shape raising ``DimensionMismatch``, and returns one entropy per matrix.
    Each must be finite, Hermitian within ``HERMITICITY_TOL`` and pass ``require_psd``.
    """
    w = np.linalg.eigvalsh(_hermitian_part(require_finite(rho, complex)))
    require_psd(w)
    w = np.where(w > EIGENVALUE_CUTOFF, w, 1.0)  # log2(1) = 0 drops the term
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
