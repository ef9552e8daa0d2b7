"""Constructions of every state family in the analysis.

Covers the unbiased-noise state, the one-parameter symmetric (Bell-diagonal)
family and its seven-parameter generalization, four-qubit purifications,
Eve's conditioned ancilla ensembles, and the Alice-Bob joint probability
table with its Monte Carlo sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasiblePoint, NotPositive, OutOfRange
from .linalg import PAULI, bell_basis, dyads, eig_hermitian, square_stack

OUTCOMES = ("z+", "z-", "x+", "x-")

FEASIBILITY_SLACK = 1e-12
ZERO_WEIGHT = 1e-12
NEGATIVE_EIG = 1e-10
MARGINAL_SLACK = 1e-9

_BELL = bell_basis()
_BELL_PROJECTORS = dyads(_BELL)

# Single-qubit kets, one row per entry of OUTCOMES.
_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=complex)
_KETS[2:] /= np.sqrt(2)


def _kron_pairs(ops: np.ndarray) -> np.ndarray:
    """out[j, k] = ops[j] ⊗ ops[k] for a stack of single-qubit operators."""
    n = len(ops)
    return np.einsum("jac,kbd->jkabcd", ops, ops).reshape(n, n, 4, 4)


# σ_j ⊗ σ_k, and the outcome-pair projectors P_a ⊗ P_b indexed [b, a].
_PAULI_PAIRS = _kron_pairs(np.array(PAULI))
_OUTCOME_PAIRS = _kron_pairs(dyads(_KETS)).swapaxes(0, 1)

# Alice's outcome l leaves Eve the two kets Σ_j _ANCILLA_SIGNS[l, i, j]·e_j
# (i = 0, 1), written in her four ancilla kets e_j.
_ANCILLA_SIGNS = np.array(
    [
        [[1, 1, 0, 0], [0, 0, 1, 1]],  # z+: e0 + e1, e2 + e3
        [[1, -1, 0, 0], [0, 0, 1, -1]],  # z-: e0 - e1, e2 - e3
        [[1, 0, 0, -1], [0, 1, 1, 0]],  # x+: e0 - e3, e1 + e2
        [[1, 0, 0, 1], [0, 1, -1, 0]],  # x-: e0 + e3, e1 - e2
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class FamilyPoint:
    """A member of the symmetric family: noise ``epsilon`` and hidden ``c22``."""

    epsilon: float
    c22: float

    def is_feasible(self) -> bool:
        slack = FEASIBILITY_SLACK
        if not -slack <= self.epsilon <= 1 + slack:
            return False
        return -1 - slack <= self.c22 <= 2 * self.epsilon - 1 + slack


def require_feasible(point: FamilyPoint) -> None:
    if not point.is_feasible():
        raise InfeasiblePoint(
            f"(epsilon={point.epsilon}, c22={point.c22}) violates "
            "-1 <= c22 <= 2*epsilon - 1 with 0 <= epsilon <= 1"
        )


@dataclass(frozen=True)
class AncillaEnsemble:
    """Eve's ancilla states, one per ``OUTCOMES`` entry, as one (n, d, d) stack."""

    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", square_stack(self.states))

    @property
    def priors(self) -> np.ndarray:
        return np.full(len(self.states), 1.0 / len(self.states))

    def average_state(self) -> np.ndarray:
        return np.sum(self.priors[:, None, None] * self.states, axis=0)


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Expansion coefficients c[j, k] = tr(ρ σ_j ⊗ σ_k), real for Hermitian ρ."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch("expected a two-qubit (4x4) operator")
    return np.trace(rho @ _PAULI_PAIRS, axis1=2, axis2=3).real


def state_from_pauli(c: np.ndarray) -> np.ndarray:
    """Assemble (1/4) Σ c[j,k] σ_j ⊗ σ_k from a real 4x4 coefficient array."""
    c = np.asarray(c, dtype=float)
    if c.shape != (4, 4):
        raise DimensionMismatch("coefficient array must be 4x4")
    return np.einsum("jk,jkmn->mn", c, _PAULI_PAIRS) / 4


def bell_weights(point: FamilyPoint) -> np.ndarray:
    """Bell-basis weights of the symmetric state at ``point``.

    The weights are ((3-2ε-c22)/4, (1+c22)/4, (-1+2ε-c22)/4, (1+c22)/4);
    they are the squared norms of Eve's four ancilla kets.
    """
    require_feasible(point)
    e, c = point.epsilon, point.c22
    w = np.array([3 - 2 * e - c, 1 + c, -1 + 2 * e - c, 1 + c]) / 4
    return np.maximum(w, 0.0)  # strip feasibility-slack dust


def unbiased_noise_state(epsilon: float) -> np.ndarray:
    """(1-ε)·singlet + ε/4·identity, the state Alice and Bob test for."""
    if not 0 <= epsilon <= 1:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    return (1 - epsilon) * _BELL_PROJECTORS[0] + epsilon / 4 * np.eye(4)


def bell_diagonal_state(point: FamilyPoint) -> np.ndarray:
    """Weighted sum of Bell projectors with the weights of ``bell_weights``."""
    w = bell_weights(point)
    return (w[:, None, None] * _BELL_PROJECTORS).sum(axis=0)


_FREE_NAMES = ("c02", "c20", "c12", "c21", "c22", "c23", "c32")


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
    if not 0 <= epsilon <= 1:
        raise OutOfRange(f"epsilon={epsilon} outside [0, 1]")
    free = (c02, c20, c12, c21, c22, c23, c32)
    for name, value in zip(_FREE_NAMES, free):
        if not -1 <= value <= 1:
            raise OutOfRange(f"{name}={value} outside [-1, 1]")
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1, 1] = c[3, 3] = -(1 - epsilon)
    c[0, 2], c[2, 0] = c02, c20
    c[1, 2], c[2, 1] = c12, c21
    c[2, 2] = c22
    c[2, 3], c[3, 2] = c23, c32
    rho = state_from_pauli(c)
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -NEGATIVE_EIG:
        raise NotPositive(
            f"coefficient choice is unphysical: smallest eigenvalue {smallest:.6e}",
            min_eigenvalue=smallest,
        )
    return rho


def purification(point: FamilyPoint) -> tuple[np.ndarray, np.ndarray]:
    """Four-qubit purification of the symmetric state.

    Returns the sixteen-dimensional ket (index order AB ⊗ E) together with
    the four unnormalized ancilla kets as rows: row j is √w_j e_j along the
    fixed orthonormal ancilla axes, so the kets are mutually orthogonal with
    squared norms equal to the Bell weights.  Zero-weight rows are exact
    zero vectors.
    """
    w = bell_weights(point)
    amps = np.sqrt(w)
    return (_BELL.T * amps).reshape(16), np.diag(amps).astype(complex)


def conditioned_ancilla(point: FamilyPoint) -> AncillaEnsemble:
    """Eve's four ancilla states conditioned on Alice's measurement result.

    Each state is the sum of two rank-one terms in the ancilla kets (sign
    pattern fixed by Alice's outcome), has unit trace, rank at most two,
    and occurs with probability 1/4.
    """
    _, e = purification(point)
    kets = _ANCILLA_SIGNS * e.diagonal()  # row j of e lies along axis j
    return AncillaEnsemble(kets.swapaxes(1, 2) @ kets.conj())


def purify_state(rho: np.ndarray) -> np.ndarray:
    """Purification of an arbitrary two-qubit state via eigendecomposition.

    The ancilla is four-dimensional; the returned ket is sixteen-dimensional
    with index order AB ⊗ E.
    """
    lam, vecs = eig_hermitian(rho)
    amps = np.sqrt(np.where(lam > ZERO_WEIGHT, lam, 0.0))
    return (vecs * amps).reshape(16)


def conditioned_ancilla_from_state(rho: np.ndarray) -> AncillaEnsemble:
    """Conditioned ancilla ensemble for an arbitrary two-qubit state.

    Projects Alice's outcome kets onto the purification and traces out Bob.
    The four states carry prior 1/4 each, which holds only when Alice's z
    and x marginals give probability 1/2 to every outcome, as on the
    tomographic family; ``OutOfRange`` is raised for any other ρ.
    """
    psi = purify_state(rho).reshape(2, 2, 4)  # (A, B, E)
    v = np.einsum("li,ibe->lbe", _KETS.conj(), psi)  # (outcome, B, E)
    cond = v.swapaxes(1, 2) @ v.conj()  # sum over Bob of |v_b><v_b| on E
    p = np.trace(cond, axis1=1, axis2=2).real  # Alice's outcome probabilities
    for label, pl in zip(OUTCOMES, p):
        if not abs(pl - 0.5) <= MARGINAL_SLACK:
            raise OutOfRange(f"Alice's {label} probability {pl:.6g} is not 1/2")
    return AncillaEnsemble(cond / p[:, None, None])


def joint_table(rho: np.ndarray) -> np.ndarray:
    """Joint outcome probabilities p[bob, alice] for random x/z measurements.

    Both parties pick the x or z basis with probability 1/2, giving the
    overall factor 1/4 on each projective probability.  Row and column
    order is (z+, z-, x+, x-).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch("expected a two-qubit (4x4) state")
    return 0.25 * np.trace(rho @ _OUTCOME_PAIRS, axis1=2, axis2=3).real


def simulate_raw_data(point: FamilyPoint, n: int, seed: int) -> np.ndarray:
    """Empirical joint table from n i.i.d. measurement rounds.

    Deterministic for a fixed seed; every call owns its generator.
    """
    if n < 1:
        raise OutOfRange(f"sample count n={n} must be >= 1")
    if seed < 0:
        raise OutOfRange(f"seed={seed} must be >= 0")
    p = joint_table(bell_diagonal_state(point))
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p.ravel()).reshape(4, 4)
    return counts / n
