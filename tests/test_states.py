import warnings

import numpy as np
import pytest

from bb84eve import (
    FamilyPoint,
    bell_basis,
    bell_diagonal_state,
    bell_weights,
    conditioned_ancilla,
    conditioned_ancilla_from_state,
    general_state,
    joint_table,
    pauli_coefficients,
    purification,
    simulate_raw_data,
    state_from_pauli,
    unbiased_noise_state,
)
from bb84eve.errors import InfeasiblePoint, NotPositive, OutOfRange
from conftest import random_density, random_feasible_point


def table1(epsilon):
    """Closed-form joint table: ε/16 on the anti-diagonal of each same-basis
    block, (2-ε)/16 off it, 1/16 in mixed-basis cells."""
    e, m, f = epsilon / 16, (2 - epsilon) / 16, 1 / 16
    return np.array(
        [
            [e, m, f, f],
            [m, e, f, f],
            [f, f, e, m],
            [f, f, m, e],
        ]
    )


def test_unbiased_noise_state_limits():
    singlet = bell_basis()[0]
    assert np.allclose(
        unbiased_noise_state(0.0), np.outer(singlet, singlet.conj()), atol=1e-15
    )
    assert np.allclose(unbiased_noise_state(1.0), np.eye(4) / 4, atol=1e-15)
    with pytest.raises(OutOfRange):
        unbiased_noise_state(1.2)


def test_unbiased_noise_state_spectrum_and_coefficients():
    rho = unbiased_noise_state(0.2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), [0.05, 0.05, 0.05, 0.85])
    c = pauli_coefficients(rho)
    assert abs(c[0, 0] - 1) < 1e-12
    for j, k in ((1, 1), (2, 2), (3, 3)):
        assert abs(c[j, k] + 0.8) < 1e-12
    off = c.copy()
    off[0, 0] = off[1, 1] = off[2, 2] = off[3, 3] = 0
    assert np.max(np.abs(off)) < 1e-12


def test_bell_diagonal_state_boundary_is_singlet():
    singlet = bell_basis()[0]
    rho = bell_diagonal_state(FamilyPoint(0.0, -1.0))
    assert np.allclose(rho, np.outer(singlet, singlet.conj()), atol=1e-15)
    assert np.allclose(bell_weights(FamilyPoint(0.0, -1.0)), [1, 0, 0, 0])


def test_bell_diagonal_weights_direct_evaluation():
    assert np.allclose(
        bell_weights(FamilyPoint(0.5, -0.5)), [0.625, 0.125, 0.125, 0.125]
    )


def test_bell_diagonal_reduces_to_unbiased_noise():
    for eps in (0.0, 0.2, 0.55, 1.0):
        rho = bell_diagonal_state(FamilyPoint(eps, -(1 - eps)))
        assert np.max(np.abs(rho - unbiased_noise_state(eps))) <= 1e-12


def test_bell_diagonal_rejects_infeasible():
    with pytest.raises(InfeasiblePoint):
        bell_diagonal_state(FamilyPoint(0.2, -0.5))
    with pytest.raises(InfeasiblePoint):
        bell_weights(FamilyPoint(0.3, -1.1))


def test_bell_diagonal_positive_on_feasible_grid(rng):
    for _ in range(50):
        point = random_feasible_point(rng)
        w = np.linalg.eigvalsh(bell_diagonal_state(point))
        assert w[0] >= -1e-12


def test_just_outside_feasibility_has_negative_eigenvalue():
    eps = 0.3
    with pytest.raises(NotPositive) as err:
        general_state(eps, c22=2 * eps - 1 + 1e-6)
    assert err.value.min_eigenvalue < 0
    assert err.value.min_eigenvalue == pytest.approx(-1e-6 / 4, rel=1e-3)


def test_general_state_symmetric_slice_matches_bell_diagonal():
    for eps, c22 in ((0.2, -0.8), (0.6, 0.1), (1.0, 0.0)):
        rho = general_state(eps, c22=c22)
        assert np.max(np.abs(rho - bell_diagonal_state(FamilyPoint(eps, c22)))) <= 1e-12


def test_general_state_positivity_check():
    rho = general_state(0.2, c22=-0.8)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    with pytest.raises(NotPositive):
        general_state(0.2, c22=0.0)
    with pytest.raises(OutOfRange):
        general_state(0.2, c12=1.5)


def test_pauli_round_trip(rng):
    for _ in range(10):
        rho = random_density(rng, 4)
        back = state_from_pauli(pauli_coefficients(rho))
        assert np.max(np.abs(back - rho)) <= 1e-12


def test_purification_pure_singlet_needs_no_entanglement():
    psi, e_kets = purification(FamilyPoint(0.0, -1.0))
    expected = np.kron(bell_basis()[0], np.array([1, 0, 0, 0]))
    assert np.allclose(psi, expected, atol=1e-15)
    assert np.allclose(e_kets[1:], 0.0)


def test_purification_kets_orthogonal_with_weight_norms(rng):
    for _ in range(30):
        point = random_feasible_point(rng)
        _, e_kets = purification(point)
        gram = e_kets @ e_kets.conj().T
        assert np.allclose(gram, np.diag(bell_weights(point)), atol=1e-12)


def test_purification_norm_example():
    _, e_kets = purification(FamilyPoint(0.5, -0.5))
    assert abs(np.vdot(e_kets[0], e_kets[0]).real - 0.625) <= 1e-12


def test_purification_traces_back_on_grid():
    for eps in np.linspace(0, 1, 20):
        for c22 in np.linspace(-1, 2 * eps - 1, 20):
            point = FamilyPoint(float(eps), float(c22))
            psi, _ = purification(point)
            from bb84eve import partial_trace

            rho = partial_trace(np.outer(psi, psi.conj()), (4, 4), keep=0)
            assert np.max(np.abs(rho - bell_diagonal_state(point))) <= 1e-12


def test_conditioned_ancilla_traces_and_rank():
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    for rho in ens.states:
        assert abs(np.trace(rho).real - 1) <= 1e-12
        w = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert w[2] <= 1e-10  # rank two
        assert np.allclose(w[:2], [0.85, 0.15], atol=1e-12)


def test_conditioned_ancilla_average_is_overall_state(rng):
    for _ in range(20):
        point = random_feasible_point(rng)
        ens = conditioned_ancilla(point)
        assert np.max(
            np.abs(ens.average_state() - np.diag(bell_weights(point)))
        ) <= 1e-12
        assert np.allclose(ens.priors, 0.25)


def test_conditioned_ancilla_noiseless_members_identical():
    ens = conditioned_ancilla(FamilyPoint(0.0, -1.0))
    pure = np.zeros((4, 4))
    pure[0, 0] = 1
    for rho in ens.states:
        assert np.allclose(rho, pure, atol=1e-15)


def test_conditioned_ancilla_from_state_matches_symmetric_route():
    point = FamilyPoint(0.35, -0.6)
    via_state = conditioned_ancilla_from_state(bell_diagonal_state(point))
    for rho in via_state.states:
        assert abs(np.trace(rho).real - 1) <= 1e-12
        w = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(w[:2], [1 - 0.35 / 2, 0.35 / 2], atol=1e-12)
        assert w[2] <= 1e-10


def test_conditioned_ancilla_from_state_rejects_biased_alice_marginal():
    zero = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    for alice in (zero, plus):  # z marginal, then x marginal, away from 1/2
        ket = np.kron(alice, zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange):
                conditioned_ancilla_from_state(np.outer(ket, ket.conj()))


def test_joint_table_matches_closed_form():
    for eps in (0.0, 0.2, 0.7, 1.0):
        got = joint_table(unbiased_noise_state(eps))
        assert np.max(np.abs(got - table1(eps))) <= 1e-12


def test_joint_table_blind_to_c22(rng):
    for _ in range(20):
        point = random_feasible_point(rng)
        got = joint_table(bell_diagonal_state(point))
        assert np.max(np.abs(got - table1(point.epsilon))) <= 1e-12


def test_joint_table_maximally_mixed():
    assert np.allclose(joint_table(np.eye(4, dtype=complex) / 4), 1 / 16)


def test_simulate_raw_data_deterministic_and_normalized():
    point = FamilyPoint(0.2, -0.6)
    a = simulate_raw_data(point, 5000, seed=11)
    b = simulate_raw_data(point, 5000, seed=11)
    assert np.array_equal(a, b)
    assert abs(a.sum() - 1) <= 1e-12


def test_simulate_raw_data_single_sample():
    table = simulate_raw_data(FamilyPoint(0.2, -0.6), 1, seed=3)
    assert np.sort(table.ravel())[-1] == 1.0
    assert table.sum() == 1.0
    with pytest.raises(OutOfRange):
        simulate_raw_data(FamilyPoint(0.2, -0.6), 0, seed=3)


def test_simulate_raw_data_rejects_negative_seed():
    with pytest.raises(OutOfRange):
        simulate_raw_data(FamilyPoint(0.2, -0.6), 10, seed=-1)


def test_simulate_raw_data_within_four_sigma():
    n = 1_000_000
    point = FamilyPoint(0.2, -0.6)
    emp = simulate_raw_data(point, n, seed=2024)
    expect = table1(0.2)
    sigma = np.sqrt(expect * (1 - expect) / n)
    assert np.all(np.abs(emp - expect) <= 4 * sigma)
