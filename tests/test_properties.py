"""Property-based checks of the physical invariants over the feasible region.

Points are drawn as (ε, t) with c22 = -1 + 2εt, which covers the whole
feasible triangle -1 <= c22 <= 2ε - 1, edges and corners included.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bb84eve import (
    FamilyPoint,
    accessible_info,
    analytic_povm,
    bell_diagonal_state,
    concurrence,
    conditioned_ancilla,
    conditioned_ancilla_from_state,
    conjugate_povm,
    general_state,
    hsw_bound,
    joint_table,
    optimal_c22,
    partial_trace,
    pauli_coefficients,
    purification,
    state_from_pauli,
    von_neumann_entropy,
)
from bb84eve.povm import COMPLETENESS_TOL
from bb84eve.states import ZERO_WEIGHT, bell_weights

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)


@st.composite
def feasible_points(draw):
    epsilon, t = draw(unit), draw(unit)
    return FamilyPoint(epsilon, -1 + 2 * epsilon * t)


@st.composite
def densities(draw, count=None):
    """Random two-qubit density operators g·g† / tr, a stack if ``count``."""
    shape = (2, 4, 4) if count is None else (count, 2, 4, 4)
    g = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2) + 1e-3 * np.eye(4)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def closed_form_table(epsilon):
    e, m, f = epsilon / 16, (2 - epsilon) / 16, 1 / 16
    return np.array([[e, m, f, f], [m, e, f, f], [f, f, e, m], [f, f, m, e]])


@PROPERTY
@given(feasible_points(), unit)
def test_joint_table_blind_to_c22_and_closed_form(point, t):
    other = FamilyPoint(point.epsilon, -1 + 2 * point.epsilon * t)
    table = joint_table(bell_diagonal_state(point))
    assert np.max(np.abs(table - joint_table(bell_diagonal_state(other)))) <= 1e-12
    assert np.max(np.abs(table - closed_form_table(point.epsilon))) <= 1e-12


@PROPERTY
@given(feasible_points())
def test_purification_traces_back_to_state(point):
    psi, _ = purification(point)
    reduced = partial_trace(np.outer(psi, psi.conj()), (4, 4), keep=0)
    assert np.max(np.abs(reduced - bell_diagonal_state(point))) <= 1e-10


@PROPERTY
@given(feasible_points())
# Two Bell weights of 5e-13: they must keep their amplitudes, or the members'
# traces fall 1e-12 short and hsw_bound reads 0 below the analytic value.
@example(FamilyPoint(1e-6, -1 + 2e-12))
def test_accessible_info_below_hsw_bound_below_one_bit(point):
    ensemble = conditioned_ancilla(point)
    bound = hsw_bound(ensemble)
    assert accessible_info(ensemble, analytic_povm(point)) <= bound + 1e-12
    assert bound <= 1 + 1e-12


@PROPERTY
@given(feasible_points())
def test_information_invariant_under_conjugation(point):
    ensemble = conditioned_ancilla(point)
    m = analytic_povm(point)
    gap = accessible_info(ensemble, conjugate_povm(m)) - accessible_info(ensemble, m)
    assert abs(gap) <= 1e-10


@PROPERTY
@given(feasible_points())
def test_analytic_povm_complete_on_support(point):
    support = np.diag((bell_weights(point) > ZERO_WEIGHT).astype(complex))
    total = analytic_povm(point).total()
    assert np.max(np.abs(total - support)) <= COMPLETENESS_TOL


@PROPERTY
@given(feasible_points())
def test_spin_flip_concurrence_equals_closed_form(point):
    want = max(0.0, (1 - point.c22) / 2 - point.epsilon)
    assert abs(concurrence(bell_diagonal_state(point)) - want) <= 1e-9


@PROPERTY
@given(unit)
@example(0.0)
@example(0.5)
@example(1.0)
def test_symmetric_centre_is_physical(epsilon):
    # nonsymmetric_search's trial 0: general_state raises NotPositive for an
    # unphysical state, so the search always accepts at least one trial
    ensemble = conditioned_ancilla_from_state(
        general_state(epsilon, c22=optimal_c22(epsilon))
    )
    traces = np.trace(ensemble.states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1)) <= 1e-9


@PROPERTY
@given(densities())
def test_pauli_round_trip(rho):
    assert np.max(np.abs(state_from_pauli(pauli_coefficients(rho)) - rho)) <= 1e-12


@PROPERTY
@given(densities(count=3))
def test_stack_entropy_equals_per_matrix_entropies(stack):
    each = [von_neumann_entropy(rho) for rho in stack]
    assert np.max(np.abs(von_neumann_entropy(stack) - each)) <= 1e-12
