"""Property-based checks of the physical invariants over the feasible region.

Points are drawn as (ε, t) with c22 = -1 + 2εt, which covers the whole
feasible triangle -1 <= c22 <= 2ε - 1, edges and corners included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bb84eve import (
    AncillaEnsemble,
    FamilyPoint,
    Povm,
    accessible_info,
    analysis,
    analytic_povm,
    bell_basis,
    bell_diagonal_state,
    binary_entropy,
    concurrence,
    conditioned_ancilla,
    conditioned_ancilla_from_state,
    conjugate_povm,
    convex_combine,
    correlation_info,
    eve_curve,
    general_state,
    hsw_bound,
    hsw_optimal,
    joint_table,
    max_entropy_c22,
    mi_alice_bob,
    mi_eve_analytic,
    mi_eve_optimal,
    mutual_information,
    nonsymmetric_search,
    optimal_c22,
    partial_trace,
    pauli_coefficients,
    purification,
    state_from_pauli,
    unbiased_noise_state,
    validate_povm,
    von_neumann_entropy,
)
from bb84eve.errors import DimensionMismatch, InfeasiblePoint, NotHermitian, NotNormalized
from bb84eve.errors import NotPositive, OutOfRange
from bb84eve.linalg import sqrt_psd
from bb84eve.states import _FREE_NAMES, _HIDDEN, NORMALIZATION_SLACK, bell_weights
from conftest import physical_general_draws
from test_linalg import expected, mismatches

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
    support = np.diag((bell_weights(point) > 0.0).astype(complex))
    total = analytic_povm(point).total()
    assert np.max(np.abs(total - support)) <= NORMALIZATION_SLACK


def holevo_operators(ensemble, m):
    """Holevo's F_j = Σ_a p_a log2(q(j|a)/q(j)) ρ_a for each outcome j, and
    Λ = Σ_j F_j Π_j, every p_a = 1/n; a term with q(j|a) = 0 counts as 0."""
    q = np.einsum("aij,kji->ka", ensemble.states, m.elements).real
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(q > 0, np.log2(q / q.mean(axis=1, keepdims=True)), 0.0)
    f = np.einsum("ka,aij->kij", ratios, ensemble.states) / len(ensemble.states)
    return f, np.einsum("kij,kjl->il", f, m.elements)


@PROPERTY
@given(feasible_points())
@example(FamilyPoint(0.0, -1.0))
@example(FamilyPoint(1.0, -1.0))
@example(FamilyPoint(1.0, 1.0))
@example(FamilyPoint(0.5, 0.0))
def test_analytic_povm_satisfies_holevo_conditions(point):
    # A maximiser of the accessible information has Λ = Λ† and Λ ⪰ F_j on
    # the support of the average state (Holevo, Probl. Inf. Transm. 9, 177,
    # 1973); that average is diagonal, with the Bell weights on it.
    ensemble = conditioned_ancilla(point)
    f, lam = holevo_operators(ensemble, analytic_povm(point))
    assert np.linalg.norm(lam - lam.conj().T) <= 1e-12
    alive = bell_weights(point) > 0.0
    on_support = (lam - f)[:, alive][:, :, alive]
    assert np.linalg.eigvalsh(on_support).min() >= -1e-12


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
@given(feasible_points())
@example(FamilyPoint(0.0, -1.0))
@example(FamilyPoint(1.0, -1.0))
@example(FamilyPoint(1.0, 1.0))
@example(FamilyPoint(0.5, 0.0))
@example(FamilyPoint(0.3, -0.4))
@example(FamilyPoint(1e-6, -1 + 2e-12))
@example(FamilyPoint(1.0, 0.9999999999999998))  # two weights of 5.6e-17
@example(FamilyPoint(0.0019173575277701138, -0.9999999999999598))  # 1.005e-14
def test_canonical_and_symmetric_routes_related_by_bell_unitary(point):
    # Both purifications of the Bell-diagonal state differ by U on Eve's
    # side.  The symmetric route roots the exact Bell weights; the canonical
    # one roots eigenvalues that eigh finds to ~1e-16 and cuts at 1e-14, so
    # an amplitude √w of a tiny weight is off by up to 1e-15/√w, or by √w
    # once the weight may fall under the cut.
    u = bell_basis().T
    want = u @ conditioned_ancilla(point).states @ u.conj().T
    got = conditioned_ancilla_from_state(bell_diagonal_state(point)).states
    w = bell_weights(point)
    w = w[w > 0]
    slack = np.max(np.where(w > 1e-13, 1e-15 / np.sqrt(w), np.sqrt(w)))
    assert np.max(np.abs(got - want)) <= 1e-12 + 2 * slack


def physical_general_states():
    return physical_general_draws().map(lambda d: general_state(d[0], *d[1]))


@PROPERTY
@given(physical_general_draws())
def test_general_state_is_the_measured_table_plus_the_hidden_coefficients(draw):
    epsilon, hidden = draw
    c = pauli_coefficients(general_state(epsilon, **dict(zip(_FREE_NAMES, hidden))))
    # x and z tomography fixes every c[j, k] with j, k in {0, 1, 3}
    measured = np.zeros((4, 4), dtype=bool)
    measured[np.ix_((0, 1, 3), (0, 1, 3))] = True
    rows, cols = zip(*_HIDDEN)
    assert len(set(_HIDDEN)) == 7 and not measured[rows, cols].any()
    table = np.diag([1, -(1 - epsilon), 0, -(1 - epsilon)])
    assert np.max(np.abs(c - table)[measured]) <= 1e-12
    for name, value in zip(_FREE_NAMES, hidden):
        assert abs(c[int(name[1]), int(name[2])] - value) <= 1e-12


def entropy_less_bob_conditioned_entropies(rho):
    """S(ρ) − ¼·Σ_a S(ρ_B|a), ρ_B|a = 2·tr_A[(P_a ⊗ I)ρ]: Eve holds a
    purification, so S(ρ_E) = S(ρ) and each of her conditioned states has
    the spectrum of Bob's."""
    kets = np.array([[1, 0], [0, 1], [1, 1], [1, -1]]) / np.sqrt([1, 1, 2, 2])[:, None]
    bob = [
        2 * partial_trace(np.kron(np.outer(k, k), np.eye(2)) @ rho, (2, 2), keep=1)
        for k in kets
    ]
    return von_neumann_entropy(rho) - sum(von_neumann_entropy(b) for b in bob) / 4


@PROPERTY
@given(physical_general_states())
def test_holevo_quantity_is_entropy_less_bob_conditioned_entropies(rho):
    want = entropy_less_bob_conditioned_entropies(rho)
    assert abs(hsw_bound(conditioned_ancilla_from_state(rho)) - want) <= 1e-12


def boundary_states(count, seed):
    """``count`` states on the edge of what the search accepts: from the
    interior symmetric state c22 = ε − 1 towards a seeded unphysical point
    of [-1, 1]^7, the pull bisected until the bracket collapses, and the
    last accepted state taken, with its conditioned ensemble."""
    def accepted(epsilon, hidden):
        try:
            rho = general_state(epsilon, *hidden)
            return rho, conditioned_ancilla_from_state(rho)
        except NotPositive:
            return None

    rng = np.random.default_rng(seed)
    while count:
        epsilon, target = rng.uniform(0.01, 0.99), rng.uniform(-1.0, 1.0, 7)
        centre = np.zeros(7)
        centre[_FREE_NAMES.index("c22")] = epsilon - 1
        if accepted(epsilon, target):
            continue
        lo, hi = 0.0, 1.0
        while lo < (mid := (lo + hi) / 2) < hi:
            if accepted(epsilon, centre + mid * (target - centre)):
                lo = mid
            else:
                hi = mid
        count -= 1
        yield accepted(epsilon, centre + lo * (target - centre))


def test_holevo_routes_agree_on_the_positivity_boundary():
    # the square root and eigvalsh read an eigenvalue within EIGENVALUE_CUTOFF
    # of 0 as 0 and reject one below it alike, so both routes see one state
    for rho, ensemble in boundary_states(60, seed=28):
        assert np.linalg.eigvalsh(rho).min() >= -2e-14
        assert abs(hsw_bound(ensemble) - entropy_less_bob_conditioned_entropies(rho)) <= 1e-12


@PROPERTY
@given(physical_general_states())
def test_canonical_ensemble_averages_to_conjugate_state(rho):
    # Eve's marginal of (√ρ ⊗ I)|Φ⁺⟩ is ρ*, up to the eigenvalues within
    # EIGENVALUE_CUTOFF of 0 that the square root reads as zeros
    ensemble = conditioned_ancilla_from_state(rho)
    assert np.max(np.abs(ensemble.states.mean(axis=0) - rho.conj())) <= 1e-12


@PROPERTY
@given(densities())
def test_pauli_round_trip(rho):
    assert np.max(np.abs(state_from_pauli(pauli_coefficients(rho)) - rho)) <= 1e-12


@PROPERTY
@given(densities(count=3))
def test_stack_entropy_equals_per_matrix_entropies(stack):
    each = [von_neumann_entropy(rho) for rho in stack]
    assert np.max(np.abs(von_neumann_entropy(stack) - each)) <= 1e-12


@PROPERTY
@given(unit)
@example(1e-9)
@example(1e-6)
@example(1e-4)
@example(1 - 1e-9)
def test_max_entropy_c22_feasible_and_on_closed_form(epsilon):
    c22 = max_entropy_c22(epsilon)
    assert -1 <= c22 <= 2 * epsilon - 1
    assert abs(c22 + (1 - epsilon) ** 2) <= 2e-8


# The named bad-input cases, each a case of the bad-input matrix in
# test_linalg.py: its entry point, its kind of input, and the error type the
# case raises, which the matrix pins exactly.
NON_FINITE_KINDS = [
    f"{value} {part} at every entry" for value in (np.nan, np.inf, -np.inf)
    for part in ("real", "imag")
]
NON_FINITE_ENTRY_POINTS = {
    **dict.fromkeys(
        ("two_qubit_operator", "joint_table", "pauli_coefficients", "state_from_pauli",
         "partial_trace", "AncillaEnsemble", "Povm", "validate_povm support"),
        ValueError,
    ),
    "mutual_information": NotNormalized,
}
MALFORMED_SHAPE_CASES = {
    "eig_hermitian stack": ("eig_hermitian", "stack of two"),
    "eig_hermitian non-square": ("eig_hermitian", "non-square"),
    "eig_hermitian 1-D": ("eig_hermitian", "1-D"),
    "eig_hermitian empty": ("eig_hermitian", "0x0"),
    "von_neumann_entropy 1-D": ("von_neumann_entropy", "1-D"),
    "von_neumann_entropy non-square": ("von_neumann_entropy", "non-square"),
    "mutual_information 1-D": ("mutual_information", "1-D"),
    "mutual_information 3-D": ("mutual_information", "stack of one"),
    "validate_povm support": ("validate_povm support", "2x2"),
    **{
        f"partial_trace {argument}": (f"partial_trace {argument}", "as given")
        for argument in (
            *(f"dims {dims!r}" for dims in
              ((2.0, 2.0), (True, 4), (-2, -2), (4,), (1, 2, 2), 5, None, np.array(5))),
            "keep True", "keep 1.0",
        )
    },
    "partial_trace dims overflow": ("partial_trace dims overflow", "0x0"),
    "Povm 0x0": ("Povm", "0x0"),
    "AncillaEnsemble 0x0": ("AncillaEnsemble", "0x0"),
}
BAD_VALUE_CASES = {
    **{
        f"{entry} text": (entry, "numeric text", ValueError)
        for entry in (
            "require_finite", "von_neumann_entropy", "AncillaEnsemble", "Povm",
            "validate_povm support",
        )
    },
    "joint_table non-Hermitian": ("joint_table", "non-Hermitian off-diagonal", NotHermitian),
    "pauli_coefficients non-Hermitian": (
        "pauli_coefficients", "non-Hermitian off-diagonal", NotHermitian
    ),
    "joint_table trace 2": ("joint_table", "doubled", NotNormalized),
    "joint_table negative entry": ("joint_table", "unit trace, not positive", NotNormalized),
    **{
        f"{entry} {imag!r}": (entry, kind, error)
        for entry, error in (
            ("state_from_pauli", NotHermitian), ("mutual_information", NotNormalized)
        )
        for imag, kind in ((0j, "complex, zero imaginary part"), (1e-3j, "complex"))
    },
    # elements I/8: every outcome probability is 1/32, and the table sums to 1/2
    "accessible_info incomplete": ("accessible_info", "halved", NotNormalized),
}


def assert_matrix_rejects(entry, kinds, error):
    """Each of ``kinds`` at ``entry`` raises its pinned type, an ``error``."""
    for kind in kinds:
        want = expected(entry, kind)
        assert isinstance(want, type) and issubclass(want, error), (kind, want)
    wrong = mismatches(entry, kinds)
    assert not wrong, wrong


@pytest.mark.parametrize("name", sorted(NON_FINITE_ENTRY_POINTS))
def test_non_finite_entry_rejected(name):
    assert_matrix_rejects(name, NON_FINITE_KINDS, NON_FINITE_ENTRY_POINTS[name])


@pytest.mark.parametrize("name", sorted(MALFORMED_SHAPE_CASES))
def test_malformed_shape_rejected(name):
    entry, kind = MALFORMED_SHAPE_CASES[name]
    assert_matrix_rejects(entry, [kind], DimensionMismatch)


@pytest.mark.parametrize("name", sorted(BAD_VALUE_CASES))
def test_bad_value_rejected(name):
    entry, kind, error = BAD_VALUE_CASES[name]
    assert_matrix_rejects(entry, [kind], error)


# Each entry: a named tolerance, written as a literal so that a changed
# constant in src fails here; an input made from a density and off by t; the
# call that checks it; and the error it raises once t exceeds the tolerance.
# The test takes t at half and at twice the tolerance.
TOLERANCE_EDGES = {
    "EIGENVALUE_CUTOFF sqrt_psd": (
        1e-14,
        lambda rho, t: rho - (np.linalg.eigvalsh(rho)[0] + t) * np.eye(4),
        sqrt_psd,
        NotPositive,
    ),
    "HERMITICITY_TOL pauli_coefficients": (
        1e-10, lambda rho, t: rho + t * np.eye(4, k=1), pauli_coefficients, NotHermitian
    ),
    "NORMALIZATION_SLACK AncillaEnsemble": (
        1e-9, lambda rho, t: (1 + t) * np.stack([rho] * 4), AncillaEnsemble, NotNormalized
    ),
    "NORMALIZATION_SLACK joint_table": (
        1e-9, lambda rho, t: (1 + t) * rho, joint_table, NotNormalized
    ),
    "NORMALIZATION_SLACK mutual_information": (
        1e-9, lambda rho, t: (1 + t) * joint_table(rho), mutual_information, NotNormalized
    ),
    "NORMALIZATION_SLACK accessible_info": (
        1e-9,
        lambda rho, t: (
            AncillaEnsemble(np.stack([rho] * 4)), Povm(np.stack([(1 + t) * np.eye(4) / 4] * 4))
        ),
        lambda args: accessible_info(*args),
        NotNormalized,
    ),
    "NORMALIZATION_SLACK validate_povm": (
        1e-9,
        lambda rho, t: Povm(np.stack((rho, (1 + t) * np.eye(4) - rho))),
        validate_povm,
        ValueError,
    ),
}


@pytest.mark.parametrize("name", sorted(TOLERANCE_EDGES))
@PROPERTY
@given(densities())
def test_tolerance_edge(name, rho):
    tolerance, make, call, error = TOLERANCE_EDGES[name]
    call(make(rho, tolerance / 2))
    with pytest.raises(error):
        call(make(rho, 2 * tolerance))


@PROPERTY
@given(unit)
@example(0.0)
@example(1.0)
def test_feasibility_slack_edge(epsilon):
    # a point may lie outside c22 in [-1, 2ε - 1], ε in [0, 1], by at most
    # EIGENVALUE_CUTOFF = 1e-14; 2**-48 and 2**-45 are exact on either side
    inside, outside = 2.0**-48, 2.0**-45
    for t in (inside, -inside):
        FamilyPoint(epsilon, 2 * epsilon - 1 + t)
        FamilyPoint(epsilon, -1 - t)
    FamilyPoint(1 + inside, -1.0)
    for call in (
        lambda: FamilyPoint(epsilon, 2 * epsilon - 1 + outside),
        lambda: FamilyPoint(epsilon, -1 - outside),
        lambda: FamilyPoint(1 + outside, -1.0),
    ):
        with pytest.raises(InfeasiblePoint):
            call()


@pytest.mark.parametrize(
    "weight, alive", [(2.0**-48, 0.0), (2.0**-45, 1.0)], ids=["zero", "alive"]
)
def test_zero_weight_edge(weight, alive):
    # a Bell weight at most EIGENVALUE_CUTOFF = 1e-14 is exactly zero, and the
    # analytic measurement drops its ancilla axis; it is complete on the others
    point = FamilyPoint(0.3, -1 + 4 * weight)  # weights 1 and 3 are `weight`
    assert bell_weights(point)[[1, 3]].tolist() == [alive * weight] * 2
    total = np.diag(analytic_povm(point).total()).real
    assert np.max(np.abs(total - [1.0, alive, 1.0, alive])) <= 1e-9


@pytest.mark.parametrize("offset, counted", [(5e-7, 1), (-5e-7, 1), (2e-6, 0), (-2e-6, 0)])
def test_near_optimum_window_edge(monkeypatch, offset, counted):
    # nonsymmetric_search counts a draw within 1e-6 of the symmetric optimum;
    # one trial accepts exactly one draw, the symmetric centre, whose value
    # the fake optimizer sets
    target = mi_eve_optimal(0.25) + offset

    def climb(runs, restarts, max_iterations):
        return None, np.full(len(runs) * restarts, target), None, None

    monkeypatch.setattr(analysis, "_climb", climb)
    report = nonsymmetric_search(0.25, 1, 0)
    assert (report.accepted, report.best_value) == (1, target)
    assert report.near_optimum_count == counted


@PROPERTY
@given(
    feasible_points(),
    st.sampled_from(["epsilon", "c22"]),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_family_point_rejects_non_finite_field(point, name, bad):
    with pytest.raises(InfeasiblePoint):
        replace(point, **{name: bad})


_MEASUREMENT = analytic_povm(FamilyPoint(0.3, -0.5))

# Every scalar argument checked by config.require_in: a call that takes the
# value, and the interval it must lie in.
INTERVAL_ARGUMENTS = {
    "correlation_info x": (correlation_info, 0, 1),
    "binary_entropy p": (binary_entropy, 0, 1),
    "mi_alice_bob epsilon": (mi_alice_bob, 0, 1),
    "mi_eve_analytic c22": (mi_eve_analytic, -1, 1),
    "optimal_c22 epsilon": (optimal_c22, 0, 1),
    "mi_eve_optimal epsilon": (mi_eve_optimal, 0, 1),
    "hsw_optimal epsilon": (hsw_optimal, 0, 1),
    "eve_curve epsilon": (lambda v: eve_curve("hsw", v), 0, 0.5),
    "unbiased_noise_state epsilon": (unbiased_noise_state, 0, 1),
    "general_state epsilon": (general_state, 0, 1),
    **{
        f"general_state {name}": (
            lambda v, name=name: general_state(0.5, **{name: v}), -1, 1
        )
        for name in _FREE_NAMES
    },
    "max_entropy_c22 epsilon": (max_entropy_c22, 0, 1),
    "nonsymmetric_search epsilon": (lambda v: nonsymmetric_search(v, 1, 0), 0, 1),
    "convex_combine weight": (
        lambda v: convex_combine(_MEASUREMENT, conjugate_povm(_MEASUREMENT), v), 0, 1
    ),
}


def _outside(lo, hi):
    """NaN, the infinities, the nearest floats beyond each bound, and any
    float beyond them."""
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, below, above]),
        st.floats(max_value=below),
        st.floats(min_value=above),
    )


@pytest.mark.parametrize("name", sorted(INTERVAL_ARGUMENTS))
@PROPERTY
@given(st.data())
def test_interval_arguments_take_bounds_and_reject_the_rest(name, data):
    call, lo, hi = INTERVAL_ARGUMENTS[name]
    with pytest.raises(OutOfRange):
        call(data.draw(_outside(lo, hi)))
    for bound in (float(lo), float(hi)):
        try:
            call(bound)
        except NotPositive:  # in range, but the state it gives is unphysical
            pass
