"""Constructions of every state family in the analysis.

Covers the unbiased-noise state, the one-parameter symmetric (Bell-diagonal)
family and its seven-parameter generalization, four-qubit purifications,
Eve's conditioned ancilla ensembles, and the Alice-Bob joint probability
table with its Monte Carlo sampler.  One map conditions a purification on
Alice's outcomes; all purifications of a state differ by a unitary on Eve's
side (Hughston, Jozsa and Wootters, Phys. Lett. A 183, 14, 1993).  The
outcome table, the Pauli coefficients and the Bell-diagonal state are each
one product with a constant table of operators read row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_SAMPLES, require_in, require_int
from .curves import _c22_interval
from .errors import DimensionMismatch, InfeasiblePoint, NotHermitian, NotNormalized, OutOfRange
from .linalg import EIGENVALUE_CUTOFF, PAULI, _hermitian_part, bell_basis, dyads
from .linalg import require_finite, require_psd, sqrt_psd, square_stack

OUTCOMES = ("z+", "z-", "x+", "x-")

# Alice's marginals, traces, joint tables and POVM completeness, to within this.
NORMALIZATION_SLACK = 1e-9

_BELL = bell_basis()
_BELL_ROWS = dyads(_BELL).reshape(4, 16)  # |β_j⟩⟨β_j| read row by row

# Single-qubit kets, one row per entry of OUTCOMES, and their bras.
_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=complex)
_KETS[2:] /= np.sqrt(2)
_BRAS = _KETS.conj()

# Row 4j + k is (σ_j ⊗ σ_k)ᵀ, row 4b + a ¼·(P_a ⊗ P_b)ᵀ: rows @ ρ.reshape(16) are the tr(ρ·A).
_PAULI_ROWS = np.einsum("jac,kbd->jkcdab", PAULI, PAULI).reshape(16, 16)
_OUTCOME_ROWS = 0.25 * np.einsum("jac,kbd->kjcdab", dyads(_KETS), dyads(_KETS)).reshape(16, 16)
_SIGMA_YY = _PAULI_ROWS[10].reshape(4, 4)  # σ_y ⊗ σ_y, its own transpose


@dataclass(frozen=True)
class FamilyPoint:
    """A member of the symmetric family: noise ``epsilon`` and hidden ``c22``.

    Construction raises ``InfeasiblePoint`` unless the point is feasible to
    within ``EIGENVALUE_CUTOFF``, the package's roundoff zero; NaN never is.
    """

    epsilon: float
    c22: float

    def __post_init__(self):
        e, c, slack = self.epsilon, self.c22, EIGENVALUE_CUTOFF
        lo, hi = _c22_interval(e)
        if not (-slack <= e <= 1 + slack and lo - slack <= c <= hi + slack):
            raise InfeasiblePoint(
                f"(epsilon={e}, c22={c}) violates "
                "-1 <= c22 <= 2*epsilon - 1 with 0 <= epsilon <= 1"
            )


@dataclass(frozen=True)
class AncillaEnsemble:
    """Eve's ancilla states, one per ``OUTCOMES`` entry, as one (n, d, d) stack.

    Every state has weight 1/n.  Construction checks that each is a density
    operator: entries that pass ``require_finite`` (else ``ValueError``), Hermitian
    (``NotHermitian``), positive (``NotPositive``) and of unit trace within
    ``NORMALIZATION_SLACK`` (``NotNormalized``), the traces read off the
    spectrum of the positivity check.  ``states`` is a read-only copy of the
    input, so it cannot change after the checks, and code that takes an
    ensemble checks none of this again.
    """

    states: np.ndarray

    def __post_init__(self):
        states = square_stack(self.states).copy()
        spectra = np.linalg.eigvalsh(_hermitian_part(states))
        require_psd(spectra)
        traces = spectra.sum(axis=1)
        if np.abs(traces - 1).max() > NORMALIZATION_SLACK:
            raise NotNormalized(f"state traces {traces.tolist()} are not all 1")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)


def two_qubit_operator(m) -> np.ndarray:
    """``m`` as a complex two-qubit (4, 4) operator with finite entries."""
    m = require_finite(m, complex)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"shape {m.shape} is not a two-qubit (4x4) operator")
    return m


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real coefficients c[j, k] = tr(ρ σ_j ⊗ σ_k) of a Hermitian ρ, else ``NotHermitian``."""
    rho = _hermitian_part(two_qubit_operator(rho))
    return (_PAULI_ROWS @ rho.reshape(16)).real.reshape(4, 4)


def state_from_pauli(c: np.ndarray) -> np.ndarray:
    """Assemble (1/4) Σ c[j,k] σ_j ⊗ σ_k from a finite real 4x4 array; a
    complex one raises ``NotHermitian``: its operator need not be Hermitian."""
    if np.iscomplexobj(c):
        raise NotHermitian("coefficients must be a real array, not a complex one")
    c = require_finite(c, float)
    if c.shape != (4, 4):
        raise DimensionMismatch("coefficient array must be 4x4")
    return np.einsum("j,jnm->mn", c.reshape(16), _PAULI_ROWS.reshape(16, 4, 4)) / 4


def bell_weights(point: FamilyPoint) -> np.ndarray:
    """Bell-basis weights of the symmetric state at ``point``.

    The weights are ((3-2ε-c22)/4, (1+c22)/4, (-1+2ε-c22)/4, (1+c22)/4);
    they are the squared norms of Eve's four ancilla kets.  One at most
    ``EIGENVALUE_CUTOFF`` is exactly 0.0, so a live weight is one > 0.0.
    """
    return np.array(_bell_weights(point.epsilon, point.c22))


def _bell_weights(e: float, c: float) -> list[float]:
    """``bell_weights`` at a feasible (ε, c22), as Python floats."""
    w = ((3 - 2 * e - c) / 4, (1 + c) / 4, (-1 + 2 * e - c) / 4, (1 + c) / 4)
    return [x if x > EIGENVALUE_CUTOFF else 0.0 for x in w]


def unbiased_noise_state(epsilon: float) -> np.ndarray:
    """(1-ε)·singlet + ε/4·identity, the state Alice and Bob test for."""
    require_in("epsilon", epsilon, 0, 1)
    return (1 - epsilon) * _BELL_ROWS[0].reshape(4, 4) + epsilon / 4 * np.eye(4)


def bell_diagonal_state(point: FamilyPoint) -> np.ndarray:
    """Weighted sum of Bell projectors with the weights of ``bell_weights``."""
    return (bell_weights(point) @ _BELL_ROWS).reshape(4, 4)


# Alice and Bob measure only x and z, which fixes the coefficients c[j, k]
# with j, k in {0, 1, 3} to the table ``general_state`` starts from.  The
# seven pairs that involve σ_y are hidden from them, listed in the order of
# ``general_state``'s arguments.
_HIDDEN = ((0, 2), (2, 0), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2))
_FREE_NAMES = tuple(f"c{j}{k}" for j, k in _HIDDEN)


def general_state(
    epsilon: float,
    c02: float = 0.0,
    c20: float = 0.0,
    c12: float = 0.0,
    c21: float = 0.0,
    c22: float = 0.0,
    c23: float = 0.0,
    c32: float = 0.0,
) -> np.ndarray:
    """Two-qubit state with the tomographic constraints fixed and the seven
    hidden coefficients free.

    Positivity is the only physical requirement on the hidden coefficients;
    there is no closed-form region for the nonsymmetric family, so the check
    is by eigenvalue.  Raises ``NotPositive`` (with the offending eigenvalue)
    if the choice is unphysical.
    """
    require_in("epsilon", epsilon, 0, 1)
    free = (c02, c20, c12, c21, c22, c23, c32)
    for name, value in zip(_FREE_NAMES, free):
        require_in(name, value, -1, 1)
    c = np.diag([1.0, -(1 - epsilon), 0.0, -(1 - epsilon)])  # the measured table
    c[tuple(zip(*_HIDDEN))] = free
    rho = state_from_pauli(c)
    require_psd(np.linalg.eigvalsh(rho))
    return rho


def purification(point: FamilyPoint) -> tuple[np.ndarray, np.ndarray]:
    """Four-qubit purification of the symmetric state.

    Returns the sixteen-dimensional ket (index order AB ⊗ E) together with
    the four unnormalized ancilla kets as rows: row j is √w_j e_j along the
    fixed orthonormal ancilla axes, so the kets are mutually orthogonal with
    squared norms equal to the Bell weights.  Zero-weight rows are exact
    zero vectors.
    """
    amps = np.sqrt(bell_weights(point))
    return _purified(amps), np.diag(amps).astype(complex)


def _purified(amps: np.ndarray) -> np.ndarray:
    """Σ_j amps[j]·|β_j⟩ ⊗ e_j, index order AB ⊗ E, e_j the ancilla axes."""
    return (_BELL.T * amps).reshape(16)


def _conditioned(psi: np.ndarray) -> AncillaEnsemble:
    """Eve's ensemble from a sixteen-dimensional purification (index order
    A ⊗ B ⊗ E): Alice's outcome kets projected onto it, Bob traced out.

    The four states carry prior 1/4 each, which holds only when Alice's z
    and x marginals give probability 1/2 to every outcome; ``OutOfRange``
    is raised otherwise.
    """
    v = (_BRAS @ psi.reshape(2, 8)).reshape(4, 2, 4)  # (outcome, B, E)
    cond = v.swapaxes(1, 2) @ v.conj()  # sum over Bob of |v_b><v_b| on E
    p = np.einsum("lii->l", cond).real  # Alice's outcome probabilities
    for label, pl in zip(OUTCOMES, p.tolist()):
        if not abs(pl - 0.5) <= NORMALIZATION_SLACK:
            raise OutOfRange(f"Alice's {label} probability {pl:.6g} is not 1/2")
    return AncillaEnsemble(cond / p[:, None, None])


def conditioned_ancilla(point: FamilyPoint) -> AncillaEnsemble:
    """Eve's four ancilla states conditioned on Alice's measurement result,
    from ``purification``'s ket: unit trace, rank at most two, prior 1/4 each."""
    return _conditioned(_purified(np.sqrt(bell_weights(point))))


def conditioned_ancilla_from_state(rho: np.ndarray) -> AncillaEnsemble:
    """Conditioned ancilla ensemble for an arbitrary two-qubit state.

    Conditions the canonical purification (√ρ ⊗ I)|Φ⁺⟩, the ket √ρ read
    row by row, whose ancilla marginal (the ensemble's average) is ρ*.  For
    a Bell-diagonal ρ the states are U·σ·U†, σ those of
    ``conditioned_ancilla`` and U = ``bell_basis().T``.  Raises
    ``NotPositive`` as ``sqrt_psd`` does.
    """
    return _conditioned(sqrt_psd(two_qubit_operator(rho)).reshape(16))


def joint_table(rho: np.ndarray) -> np.ndarray:
    """Joint outcome probabilities p[bob, alice] for random x/z measurements.

    Both parties pick the x or z basis with probability 1/2, giving the
    overall factor 1/4 on each projective probability.  Row and column
    order is (z+, z-, x+, x-).  Raises ``NotHermitian`` unless ρ is
    Hermitian, and ``NotNormalized`` unless the table's entries are >= 0
    and sum to 1, each within ``NORMALIZATION_SLACK``.
    """
    rho = _hermitian_part(two_qubit_operator(rho))
    table = (_OUTCOME_ROWS @ rho.reshape(16)).real.reshape(4, 4)
    low, total = table.min(), table.sum()
    if not (low >= -NORMALIZATION_SLACK and abs(total - 1) <= NORMALIZATION_SLACK):
        raise NotNormalized(f"table has smallest entry {low:.3e} and sums to {float(total)}")
    return table


def simulate_raw_data(point: FamilyPoint, n: int, seed: int) -> np.ndarray:
    """Empirical joint table from n i.i.d. measurement rounds.

    Deterministic for a fixed seed; every call owns its generator.  ``n``
    must be an integer in [1, ``MAX_SAMPLES``] and ``seed`` one >= 0, or
    ``OutOfRange`` is raised.
    """
    require_int("n", n, 1, MAX_SAMPLES)
    require_int("seed", seed, 0)
    p = joint_table(bell_diagonal_state(point))
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p.ravel()).reshape(4, 4)
    return counts / n
