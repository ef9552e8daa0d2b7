import numpy as np
import pytest

from bb84eve import (
    FamilyPoint,
    bell_basis,
    bell_diagonal_state,
    eig_hermitian,
    partial_trace,
    purification,
    von_neumann_entropy,
)
from bb84eve.errors import DimensionMismatch, NotHermitian, NotPositive
from bb84eve.infotheory import concurrence
from bb84eve.linalg import sqrt_psd
from bb84eve.povm import Povm, validate_povm
from bb84eve.states import AncillaEnsemble, joint_table, pauli_coefficients
from conftest import random_density, random_unitary


def test_eig_identity():
    spec = eig_hermitian(np.eye(4, dtype=complex))
    assert np.allclose(spec.eigenvalues, 1.0)


def test_eig_diagonal_sorted_descending():
    spec = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(spec.eigenvalues, [0.7, 0.3])


def test_eig_singlet_projector_rank_one():
    singlet = bell_basis()[0]
    spec = eig_hermitian(np.outer(singlet, singlet.conj()))
    assert np.allclose(spec.eigenvalues, [1, 0, 0, 0], atol=1e-12)


def test_eig_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


def test_eig_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_eig_reconstruction_residual(rng, dim):
    for _ in range(20):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (g + g.conj().T) / 2
        w, v = eig_hermitian(m)
        assert np.max(np.abs(m @ v - v @ np.diag(w))) <= 1e-10 * dim
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10


def test_partial_trace_product_state(rng):
    rho = random_density(rng, 2)
    tau = random_density(rng, 2)
    joint = np.kron(rho, tau)
    assert np.allclose(partial_trace(joint, (2, 2), keep=0), rho, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 2), keep=1), tau, atol=1e-12)
    two = np.int64(2)  # a numpy integer is an integer
    assert np.array_equal(partial_trace(joint, (two, two), 1), partial_trace(joint, (2, 2), 1))


def test_partial_trace_singlet_is_maximally_mixed():
    singlet = bell_basis()[0]
    proj = np.outer(singlet, singlet.conj())
    reduced = partial_trace(proj, (2, 2), keep=0)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_purification_matches_direct_construction():
    point = FamilyPoint(0.3, -0.49)
    psi, _ = purification(point)
    rho = partial_trace(np.outer(psi, psi.conj()), (4, 4), keep=0)
    assert np.max(np.abs(rho - bell_diagonal_state(point))) <= 1e-12


def test_partial_trace_preserves_trace_and_is_linear(rng):
    for _ in range(10):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        lam = rng.uniform()
        mix = lam * a + (1 - lam) * b
        for keep in (0, 1):
            ta = partial_trace(a, (2, 2), keep)
            tb = partial_trace(b, (2, 2), keep)
            tm = partial_trace(mix, (2, 2), keep)
            assert abs(np.trace(ta) - np.trace(a)) < 1e-12
            assert np.allclose(tm, lam * ta + (1 - lam) * tb, atol=1e-12)
            assert np.max(np.abs(ta - ta.conj().T)) < 1e-12


def test_partial_trace_dimension_checks():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), (2, 2), keep=0)
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), (2, 2), keep=2)


def test_entropy_pure_state():
    singlet = bell_basis()[0]
    assert abs(von_neumann_entropy(np.outer(singlet, singlet.conj()))) <= 1e-12


def test_entropy_maximally_mixed_two_qubit():
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) <= 1e-12


def test_entropy_matches_binary_entropy_oracle():
    # frozen from -0.1*log2(0.1) - 0.9*log2(0.9)
    assert abs(von_neumann_entropy(np.diag([0.9, 0.1])) - 0.4689955935892812) <= 1e-12


def test_entropy_unitary_invariance(rng):
    for _ in range(10):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ rho @ u.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


def test_sqrt_psd_squares_back(rng):
    for dim in (2, 4):
        rho = random_density(rng, dim)
        root = sqrt_psd(rho)
        assert np.max(np.abs(root - root.conj().T)) <= 1e-15
        assert np.max(np.abs(root @ root - rho)) <= 1e-12
        assert np.linalg.eigvalsh(root).min() >= -1e-12


def test_sqrt_psd_rejects_negative_eigenvalue():
    with pytest.raises(NotPositive) as err:
        sqrt_psd(np.diag([0.6, 0.5, -0.1]))
    assert err.value.min_eigenvalue == pytest.approx(-0.1)
    with pytest.raises(NotPositive):  # the rule von_neumann_entropy applies
        von_neumann_entropy(np.diag([0.6, 0.5, -0.1]))
    # noise within EIGENVALUE_CUTOFF = 1e-14 is rooted as zero; beyond it is not
    assert np.array_equal(sqrt_psd(np.diag([1.0, -5e-15])), np.diag([1.0, 0.0]))
    with pytest.raises(NotPositive):
        sqrt_psd(np.diag([1.0, -1e-11]))


def test_bell_basis_orthonormal():
    kets = bell_basis()
    assert np.allclose(kets @ kets.conj().T, np.eye(4), atol=1e-15)


def test_bell_basis_explicit_kets():
    kets = bell_basis()
    s = 1 / np.sqrt(2)
    # singlet: (|z+ z-> - |z- z+>)/sqrt(2)
    assert np.allclose(kets[0], [0, s, -s, 0])
    # fourth: (|z+ z+> - |z- z->)/sqrt(2)
    assert np.allclose(kets[3], [s, 0, 0, -s])


# Every public consumer of the matrix checks, each fed one matrix; the stack
# consumers get it as a stack of one.
MATRIX_CONSUMERS = {
    "von_neumann_entropy": von_neumann_entropy,
    "eig_hermitian": eig_hermitian,
    "sqrt_psd": sqrt_psd,
    "partial_trace": lambda m: partial_trace(m, (2, 2), 0),
    "pauli_coefficients": pauli_coefficients,
    "joint_table": joint_table,
    "concurrence": concurrence,
    "AncillaEnsemble": lambda m: AncillaEnsemble(np.asarray(m)[None]),
    "validate_povm": lambda m: validate_povm(Povm(np.asarray(m)[None])),
}


def _mixed_with(*entries):
    """I/4 with each (row, column, value) entry added."""
    m = np.eye(4, dtype=complex) / 4
    for i, j, value in entries:
        m[i, j] += value
    return m


def _bad_matrices():
    """(name, matrix, the type every consumer raises, {consumer: other type})."""
    for v in (np.nan, np.inf, -np.inf):
        for part, unit in (("real", 1), ("imag", 1j)):
            for place, i, j in (("diagonal", 0, 0), ("off-diagonal", 0, 1)):
                yield f"{v} {part} {place}", _mixed_with((i, j, v * unit)), ValueError, {}
        yield f"{v} Hermitian pair", _mixed_with((0, 1, v), (1, 0, v)), ValueError, {}
    non_square = np.zeros((4, 3), dtype=complex)
    yield "non-square", non_square, DimensionMismatch, {}
    non_square = non_square.copy()
    non_square[0, 0] = np.nan
    yield "non-square, a NaN", non_square, ValueError, {}  # the entry wins
    yield "1-D", np.full(4, 0.25), DimensionMismatch, {}
    yield "1-D, a NaN", np.array([np.nan, 0.25, 0.25, 0.25]), ValueError, {}
    yield "empty", np.zeros((0, 0)), DimensionMismatch, {}
    yield "empty stack", np.zeros((0, 4, 4)), DimensionMismatch, {}
    # partial_trace takes any square operator and raises nothing
    yield "non-Hermitian off-diagonal", _mixed_with((0, 1, 0.1)), NotHermitian, {
        "partial_trace": None
    }
    yield "non-Hermitian diagonal", _mixed_with((0, 0, 0.1j)), NotHermitian, {
        "partial_trace": None
    }
    yield "non-Hermitian, a NaN", _mixed_with((0, 1, 0.1), (2, 2, np.nan)), ValueError, {}
    for entry in ("x", None, b"x"):  # no entry is a number
        yield f"{type(entry).__name__} entries", np.full((4, 4), entry), ValueError, {}


@pytest.mark.parametrize("consumer", MATRIX_CONSUMERS)
def test_matrix_checks_raise_their_error_type(consumer):
    """Each bad matrix raises exactly its type, not merely a ValueError:
    a non-finite entry wins over a bad shape and over a Hermiticity defect."""
    wrong = []
    for name, m, raises, overrides in _bad_matrices():
        want = overrides.get(consumer, raises)
        try:
            MATRIX_CONSUMERS[consumer](m)
            got = None
        except ValueError as e:
            got = type(e)
        if got is not want:
            wrong.append(f"{name}: {got} instead of {want}")
    assert not wrong, wrong
