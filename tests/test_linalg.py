import types
import warnings

import numpy as np
import pytest

from bb84eve import FamilyPoint, bell_basis, bell_diagonal_state, purification
from bb84eve.errors import DimensionMismatch, NotHermitian, NotNormalized, NotPositive, OutOfRange
from bb84eve.infotheory import concurrence, mutual_information
from bb84eve.linalg import MAX_ENTRY, PAULI, eig_hermitian, partial_trace, require_finite
from bb84eve.linalg import require_psd, sqrt_psd, von_neumann_entropy
from bb84eve.povm import Povm, accessible_info, validate_povm
from bb84eve.states import AncillaEnsemble, conditioned_ancilla_from_state, general_state
from bb84eve.states import joint_table, pauli_coefficients, state_from_pauli, two_qubit_operator
from conftest import random_density, random_unitary


def test_eig_identity():
    eigenvalues, _ = eig_hermitian(np.eye(4, dtype=complex))
    assert np.allclose(eigenvalues, 1.0)


def test_eig_diagonal_sorted_descending():
    eigenvalues, _ = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(eigenvalues, [0.7, 0.3])


def test_eig_singlet_projector_rank_one():
    singlet = bell_basis()[0]
    eigenvalues, _ = eig_hermitian(np.outer(singlet, singlet.conj()))
    assert np.allclose(eigenvalues, [1, 0, 0, 0], atol=1e-12)


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


def test_require_psd_rejects_nan():
    # NaN < -EIGENVALUE_CUTOFF is false, so only a test of the good side catches it
    with pytest.raises(NotPositive):
        require_psd(np.array([np.nan, 1.0]))


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


_RHO = random_density(np.random.default_rng(31), 4)  # no entry is 0
_MEASUREMENT = np.stack((_RHO, np.eye(4) - _RHO))

# Every public entry point that takes an array, with a valid array for it.
ENTRY_POINTS = {
    "require_finite": (_RHO, lambda m: require_finite(m, complex)),
    "eig_hermitian": (_RHO, eig_hermitian),
    "sqrt_psd": (_RHO, sqrt_psd),
    "von_neumann_entropy": (_RHO, von_neumann_entropy),
    "partial_trace": (_RHO, lambda m: partial_trace(m, (2, 2), 0)),
    "two_qubit_operator": (_RHO, two_qubit_operator),
    "pauli_coefficients": (_RHO, pauli_coefficients),
    "joint_table": (_RHO, joint_table),
    "concurrence": (_RHO, concurrence),
    "conditioned_ancilla_from_state": (  # Alice's marginals must be uniform
        general_state(0.3, 0.05, -0.05, 0.1, 0.05, -0.6, 0.05, -0.05),
        conditioned_ancilla_from_state,
    ),
    "state_from_pauli": (pauli_coefficients(_RHO), state_from_pauli),
    "mutual_information": (joint_table(_RHO), mutual_information),
    "AncillaEnsemble": (np.stack([_RHO] * 4), AncillaEnsemble),
    "Povm": (_MEASUREMENT, Povm),
    "validate_povm": (_MEASUREMENT, lambda m: validate_povm(Povm(m))),
    "validate_povm support": (np.eye(4), lambda s: validate_povm(Povm(np.eye(4)[None]), s)),
    "accessible_info": (
        np.stack([np.eye(4) / 4] * 4),
        lambda m: accessible_info(AncillaEnsemble(np.stack([_RHO] * 4)), Povm(m)),
    ),
}

# partial_trace with a dims or keep that is not its integers.  It checks the
# entries first, so it raises what partial_trace raises on the same matrix,
# and DimensionMismatch where partial_trace returns.
BAD_ARGUMENTS = {
    **{
        f"partial_trace dims {dims!r}": lambda m, dims=dims: partial_trace(m, dims, 0)
        for dims in ((2.0, 2.0), (True, 4), (-2, -2), (4,), (1, 2, 2), 5, None, np.array(5))
    },
    # the product of two numpy integers wraps to 0 in int64
    "partial_trace dims overflow": lambda m: partial_trace(m, (np.int64(2**32),) * 2, 0),
    **{
        f"partial_trace keep {keep!r}": lambda m, keep=keep: partial_trace(m, (2, 2), keep)
        for keep in (True, 1.0, 2)
    },
}


def _set(v, value, where=(0, 1)):
    """``v`` with the entry ``where`` of each matrix set to ``value``."""
    m = v.astype(np.result_type(v, value))
    m[(..., *where)] = value
    return m


def _at_every_entry(value):
    """The inputs ``v`` with one entry set to ``value``, one for each entry."""
    def inputs(v):
        for i in range(v.size):
            m = v.astype(np.result_type(v, value))
            m.flat[i] = value
            yield m
    return inputs


def _matrix(v):
    with warnings.catch_warnings():  # numpy asks for a plain ndarray instead
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.asmatrix(v.reshape(-1, v.shape[-1]))


def _skewed(v):
    """``v`` with 0.1 added above the diagonal of each matrix: not Hermitian."""
    return v + 0.1 * np.eye(*v.shape[-2:], k=1)


# Outcomes besides an exact error type: values that are all finite; or those,
# a plain ValueError or a bb84eve.errors type, but not numpy's LinAlgError.
FINITE, TYPED = "finite", "typed"

# Entry points whose outcome differs from the rest, by what they check: a
# table's entries and sum; entries only; no Hermiticity defect; stacks taken
# too; square matrices of any size taken.
_TABLE = {"mutual_information": NotNormalized}
_ENTRIES = {"require_finite": FINITE}
_NO_HERMITICITY = dict.fromkeys(("require_finite", "partial_trace", "two_qubit_operator"), FINITE)
_STACKS = {**_ENTRIES, "von_neumann_entropy": FINITE}
_ANY_SIZE = {**_STACKS, "eig_hermitian": FINITE, "sqrt_psd": FINITE}
_SCALED = {  # a state or measurement times 2 or 1/2, so not of unit trace or complete
    **_TABLE, "joint_table": NotNormalized, "AncillaEnsemble": NotNormalized,
    "conditioned_ancilla_from_state": OutOfRange, "validate_povm": ValueError,
    "validate_povm support": ValueError, "accessible_info": NotNormalized,
}
_IMAGINARY_DIAGONAL = {
    **_NO_HERMITICITY, **_TABLE, "state_from_pauli": NotHermitian,
    "validate_povm support": ValueError,
}

# Each kind of input: how to make it from an entry point's valid array (one
# input, or a generator of them), the outcome every entry point gives, and
# the entry points that give another.  Every entry point raises on an entry
# above MAX_ENTRY; the other dtypes and shapes at the end assert only TYPED.
KINDS = {
    "as given": (lambda v: v, FINITE, {}),
    **{
        f"{value} {part} at every entry": (
            _at_every_entry(as_part(value)),
            ValueError,
            {**_TABLE, "state_from_pauli": NotHermitian} if part == "imag" else _TABLE,
        )
        for value in (np.nan, np.inf, -np.inf, 1e308)
        for part, as_part in (("real", float), ("imag", lambda x: complex(0, x)))
    },
    **{
        f"{value} Hermitian pair": (
            lambda v, value=value: _set(_set(v, value), value, (1, 0)), ValueError, _TABLE
        )
        for value in (np.nan, np.inf, -np.inf, 1e308)
    },
    "scaled by 1e308": (lambda v: 1e308 * v, ValueError, _TABLE),
    "non-square": (lambda v: v[..., :3, :], DimensionMismatch, {**_ENTRIES, **_TABLE}),
    "non-square, a NaN": (lambda v: _set(v[..., :3, :], np.nan, (0, 0)), ValueError, _TABLE),
    "1-D": (np.ravel, DimensionMismatch, _ENTRIES),
    # a table's shape is checked before its sum, where NaN fails
    "1-D, a NaN": (
        lambda v: _set(v, np.nan, (0, 0)).ravel(),
        ValueError,
        {"mutual_information": DimensionMismatch},
    ),
    "0x0": (lambda v: v[..., :0, :0], DimensionMismatch, {**_ENTRIES, **_TABLE}),
    "2x2": (
        lambda v: v[..., :2, :2],
        DimensionMismatch,
        {**_ANY_SIZE, **_TABLE, "AncillaEnsemble": NotNormalized, "Povm": FINITE,
         "validate_povm": FINITE},
    ),
    "empty stack": (lambda v: np.zeros((0, *v.shape[-2:])), DimensionMismatch, _ENTRIES),
    "stack of one": (lambda v: v[None], DimensionMismatch, _STACKS),
    "stack of two": (lambda v: np.stack((v, 2 * v)), DimensionMismatch, _STACKS),
    "non-Hermitian off-diagonal": (
        _skewed,
        NotHermitian,
        {**_IMAGINARY_DIAGONAL, "state_from_pauli": FINITE},
    ),
    "non-Hermitian diagonal": (
        lambda v: _set(v, v[..., 0, 0] + 0.1j, (0, 0)), NotHermitian, _IMAGINARY_DIAGONAL
    ),
    "non-Hermitian, a NaN": (lambda v: _set(_skewed(v), np.nan, (2, 2)), ValueError, _TABLE),
    **{
        f"{type(entry).__name__} entries": (
            lambda v, entry=entry: np.full(v.shape, entry), ValueError, _TABLE
        )
        for entry in ("x", None, b"x")
    },
    # numeric text such as "(0.25+0j)" converts to a number: refused before any cast
    "numeric text": (lambda v: v.astype(str), ValueError, _TABLE),
    "complex, zero imaginary part": (
        lambda v: v + 0j, FINITE, {**_TABLE, "state_from_pauli": NotHermitian}
    ),
    "complex": (lambda v: v + 1e-3j, NotHermitian, _IMAGINARY_DIAGONAL),
    "doubled": (lambda v: 2 * v, FINITE, _SCALED),
    "halved": (lambda v: v / 2, FINITE, _SCALED),
    # ρ + 1.5·σ_z ⊗ I is Hermitian with unit trace, and 0.375 less in every
    # (bob, z-) entry of its joint table, below zero
    "unit trace, not positive": (
        lambda v: v + 1.5 * np.kron(PAULI[3], PAULI[0]),
        NotPositive,
        {
            **_NO_HERMITICITY, **_TABLE, "eig_hermitian": FINITE, "pauli_coefficients": FINITE,
            "joint_table": NotNormalized, "state_from_pauli": NotHermitian,  # a complex array
            "validate_povm support": ValueError,
        },
    ),
    "scaled to MAX_ENTRY / 2": (lambda v: MAX_ENTRY / 2 * v, TYPED, {}),
    "subnormal": (lambda v: 5e-324 * v, TYPED, {}),
    "None": (lambda v: None, TYPED, {}),
    "ragged": (lambda v: [*v.tolist()[:-1], v.tolist()[-1][:-1]], TYPED, {}),
    "bool": (lambda v: v != 0, TYPED, {}),
    "uint8": (lambda v: (v != 0).astype(np.uint8), TYPED, {}),
    "float16": (lambda v: v.real.astype(np.float16), TYPED, {}),
    "complex64": (lambda v: v.astype(np.complex64), TYPED, {}),
    "longdouble": (lambda v: v.real.astype(np.longdouble), TYPED, {}),
    "object": (lambda v: v.astype(object), TYPED, {}),
    "datetime": (lambda v: np.full(v.shape, np.datetime64(0, "s")), TYPED, {}),
    "masked": (lambda v: np.ma.masked_array(v, mask=v == v.flat[0]), TYPED, {}),
    "np.matrix": (_matrix, TYPED, {}),
    **{f"{k}-D of 0.25": (lambda v, k=k: np.full((2,) * k, 0.25), TYPED, {}) for k in range(6)},
    "1x1": (lambda v: v[..., :1, :1], TYPED, {}),
    "2x3": (lambda v: v[..., :2, :3], TYPED, {}),
}


def _outcome(call, m):
    """The exact type of the ValueError or warning ``call(m)`` raises, else
    FINITE if its values are all finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(m)
    except (ValueError, Warning) as e:
        return type(e)
    out = getattr(out, "states", getattr(out, "elements", out))
    parts = out if isinstance(out, tuple) else () if out is None else (out,)
    return FINITE if all(np.isfinite(x).all() for x in parts) else "not finite"


def _allowed(got, want):
    if want is not TYPED:
        return got is want
    return got in (FINITE, ValueError) or getattr(got, "__module__", None) == "bb84eve.errors"


def expected(entry, kind):
    """The outcome the matrix pins for the input ``kind`` at ``entry``."""
    base = "partial_trace" if entry in BAD_ARGUMENTS else entry
    _, outcome, others = KINDS[kind]
    want = others.get(base, outcome)
    return DimensionMismatch if entry in BAD_ARGUMENTS and want is FINITE else want


def mismatches(entry, kinds=KINDS):
    """Each of ``kinds`` whose outcome at ``entry`` is not the pinned one."""
    valid, call = ENTRY_POINTS["partial_trace" if entry in BAD_ARGUMENTS else entry]
    call = BAD_ARGUMENTS.get(entry, call)
    wrong = []
    for kind in kinds:
        want = expected(entry, kind)
        made = KINDS[kind][0](valid)
        for m in made if isinstance(made, types.GeneratorType) else [made]:
            got = _outcome(call, m)
            if not _allowed(got, want):
                wrong.append(f"{kind}: {got} instead of {want}")
                break
    return wrong


@pytest.mark.parametrize("entry", [*ENTRY_POINTS, *BAD_ARGUMENTS])
def test_matrix_checks_raise_their_error_type(entry):
    """Each kind of input gives exactly its outcome at each entry point: an
    entry is checked before a shape, a shape before a Hermiticity defect,
    and no call warns or returns a value that is not finite."""
    wrong = mismatches(entry)
    assert not wrong, wrong
