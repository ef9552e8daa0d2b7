import numpy as np
import pytest
from hypothesis import example, given, settings

from bb84eve import (
    AncillaEnsemble,
    FamilyPoint,
    OptimizerConfig,
    Povm,
    accessible_info,
    analytic_povm,
    binary_entropy,
    conditioned_ancilla,
    conditioned_ancilla_from_state,
    conjugate_povm,
    convex_combine,
    general_state,
    hsw_bound,
    mi_eve_analytic,
    mutual_information,
    optimize_povm,
    validate_povm,
)
from bb84eve.config import MAX_RESTARTS
from bb84eve.errors import (
    DimensionMismatch,
    InfeasiblePoint,
    NotHermitian,
    NotNormalized,
    NotPositive,
    OutOfRange,
)
from bb84eve.linalg import dyads
from bb84eve import povm as povm_mod
from bb84eve.povm import (
    STATIONARY_TOL,
    _batch_info_and_ratios,
    _conjugate_gradient,
    _gradient,
    _next_step,
    _random_starts,
    _retract,
    _tangent,
)
from bb84eve.states import bell_weights
from test_properties import assert_integer_refused
from conftest import family_edge, physical_general_draws, povms, random_feasible_point

# frozen: 0.5 * correlation_info(sqrt(0.96))
HALF_PHI_SQRT096 = 0.45926554249282286


def _inner(x, y):
    """Re tr(x†y) of each pair in the batch."""
    return np.einsum("rki,rki->r", x.conj(), y).real


def support_projector(point):
    alive = bell_weights(point) > 0.0
    return np.diag(alive.astype(complex))


def test_analytic_povm_interior_is_orthonormal_basis():
    point = FamilyPoint(0.4, -0.5)
    m = analytic_povm(point)
    assert len(m.elements) == 4
    validate_povm(m)
    total = m.total()
    assert np.max(np.abs(total - np.eye(4))) <= 1e-10
    for el in m.elements:
        w = np.linalg.eigvalsh(el)
        assert abs(w[-1] - 1) <= 1e-12  # unit-norm rank-one projector
        assert np.max(np.abs(w[:-1])) <= 1e-12


def test_analytic_povm_completeness_on_grid(rng):
    for _ in range(40):
        point = random_feasible_point(rng)
        m = analytic_povm(point)
        validate_povm(m, support=support_projector(point))


def test_analytic_povm_boundary_drops_dead_component():
    eps = 0.25
    point = FamilyPoint(eps, 2 * eps - 1)  # third weight is exactly zero
    m = analytic_povm(point)
    assert len(m.elements) == 4
    for el in m.elements:
        assert np.max(np.abs(el[2, :])) <= 1e-15
        assert np.max(np.abs(el[:, 2])) <= 1e-15
    validate_povm(m, support=support_projector(point))


@pytest.mark.parametrize("c22", [1.0, 0.9999999999999998])
def test_analytic_povm_corner_is_the_surviving_basis_projectors(c22):
    # at (1, 1) every ket of the closed form vanishes; only w1 and w3 survive
    m = analytic_povm(FamilyPoint(1.0, c22))
    expected = np.zeros((2, 4, 4), dtype=complex)
    expected[0, 1, 1] = expected[1, 3, 3] = 1
    assert np.max(np.abs(m.elements - expected)) <= 1e-15


def test_analytic_povm_rejects_infeasible():
    with pytest.raises(InfeasiblePoint):
        analytic_povm(FamilyPoint(0.2, 0.0))


def test_validate_povm_rejects_non_hermitian_and_non_finite():
    # I/2 ± B is complete and (E + E†)/2 = I/2 is positive, but E ≠ E†
    b = np.array([[0, 0.1], [-0.1, 0]])
    with pytest.raises(NotHermitian):
        validate_povm(Povm((np.eye(2) / 2 + b, np.eye(2) / 2 - b)))
    bad = np.eye(2) / 2
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Povm((bad, np.eye(2) / 2))  # rejected when built
    # complete, Hermitian, but one element has eigenvalue -0.1
    with pytest.raises(NotPositive):
        validate_povm(Povm((np.diag([1.1, 0.5]), np.diag([-0.1, 0.5]))))


def _quarter_identities_with(extra):
    elements = np.stack([np.eye(4, dtype=complex) / 4] * 4)
    elements[:, 0, 0] += extra
    return elements


@pytest.mark.parametrize(
    "elements",
    [np.stack([np.eye(4) / 4] * 4) + 1e-3j, _quarter_identities_with(0.1j)],
    ids=["complex", "imaginary diagonal"],
)
def test_povm_refuses_elements_that_are_not_hermitian(elements):
    # accessible_info reads the real part of each tr(S_a·E_k), so it would
    # return a finite number for these if they were taken as a measurement
    ensemble = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    with pytest.raises(NotHermitian):
        accessible_info(ensemble, Povm(elements))


def test_povm_keeps_its_elements_as_given():
    # the check reads the Hermitian part; the stack keeps its roundoff
    elements = _quarter_identities_with(1e-17j)
    assert np.array_equal(Povm(elements).elements, elements)


def test_validate_povm_rejects_incomplete_set():
    with pytest.raises(ValueError, match="sum to identity"):
        validate_povm(Povm(0.5 * np.eye(4)[None]))


@pytest.mark.parametrize(
    "support",
    [np.full((4, 4), "x"), [[None]], np.full((4, 4), None), np.full((4, 4), np.nan)],
    ids=["text", "none-1x1", "none", "nan"],
)
def test_validate_povm_rejects_a_support_that_is_not_finite_numbers(support):
    """The support is checked like every matrix input, before its shape and
    before the completeness sum, so none of these ends in a TypeError or in
    "sum to identity only within nan"."""
    with pytest.raises(ValueError) as caught:
        validate_povm(Povm(np.eye(4)[None]), support)
    assert type(caught.value) is ValueError
    assert "sum to identity" not in str(caught.value)


# unit trace, but with an antisymmetric part
_SKEWED = np.eye(4) / 4 + 0.1 * (np.eye(4, k=1) - np.eye(4, k=-1))


@pytest.mark.parametrize(
    "states, error",
    [
        (np.stack([-np.eye(4) / 4] * 4), NotPositive),
        (np.stack([np.eye(4) / 4] * 3 + [_SKEWED]), NotHermitian),
        (np.full((4, 4, 4), np.nan), ValueError),
        (np.stack([np.eye(4) / 2] * 4), NotNormalized),
    ],
    ids=["negative", "non-hermitian", "nan", "trace-two"],
)
def test_ancilla_ensemble_holds_density_operators(states, error):
    with pytest.raises(error):
        AncillaEnsemble(states)


def test_ancilla_ensemble_keeps_a_read_only_copy_of_its_states():
    states = conditioned_ancilla(FamilyPoint(0.3, -0.5)).states.copy()
    ensemble = AncillaEnsemble(states)
    states[0] = np.eye(4) / 4
    assert not np.array_equal(ensemble.states[0], states[0])
    with pytest.raises(ValueError, match="read-only"):
        ensemble.states[0] = np.eye(4) / 4


def test_povm_keeps_a_read_only_copy_of_its_elements():
    elements = np.stack([np.eye(4, dtype=complex) / 4] * 4)
    m = Povm(elements)
    elements[0, 0, 0] = np.nan
    assert np.isfinite(m.elements).all()
    with pytest.raises(ValueError, match="read-only"):
        m.elements[0, 0, 0] = np.inf


def test_accessible_info_single_outcome_is_zero():
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    trivial = Povm(elements=(np.eye(4, dtype=complex),))
    assert abs(accessible_info(ens, trivial)) <= 1e-12


def test_accessible_info_matches_closed_form_value():
    point = FamilyPoint(0.4, -0.2)
    got = accessible_info(conditioned_ancilla(point), analytic_povm(point))
    assert abs(got - HALF_PHI_SQRT096) <= 1e-10


def test_accessible_info_epsilon_independent():
    c22 = -0.5
    values = []
    for eps in np.linspace((1 + c22) / 2, 1.0, 15):
        point = FamilyPoint(float(eps), c22)
        values.append(accessible_info(conditioned_ancilla(point), analytic_povm(point)))
    assert np.max(values) - np.min(values) <= 1e-9
    assert abs(values[0] - mi_eve_analytic(c22)) <= 1e-10


def test_analytic_oracle_holds_next_to_the_edges():
    # a Bell weight w at most EIGENVALUE_CUTOFF is zero in the ensemble and
    # the measurement alike; one just above it keeps its axis in both
    worst = 0.0
    for epsilon in np.linspace(0.01, 0.99, 25):
        for w in 10.0 ** np.linspace(-16, -10, 25):
            for c22 in (-1 + 4 * w, 2 * epsilon - 1 - 4 * w):
                point = FamilyPoint(float(epsilon), float(c22))
                got = accessible_info(conditioned_ancilla(point), analytic_povm(point))
                worst = max(worst, abs(got - mi_eve_analytic(point.c22)))
    assert worst <= 1e-11


def test_accessible_info_dimension_check():
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    bad = Povm(elements=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):
        accessible_info(ens, bad)
    # both types hold one (n, d, d) stack of square matrices, n >= 1
    for not_a_stack in (np.eye(4), np.ones((4, 4, 2)), np.ones((0, 4, 4))):
        with pytest.raises(DimensionMismatch):
            Povm(not_a_stack)
        with pytest.raises(DimensionMismatch):
            AncillaEnsemble(not_a_stack)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(physical_general_draws(), povms())
@example(family_edge(0.3, -1.0), Povm(dyads(np.eye(4, dtype=complex))))
@example(family_edge(0.3, 2 * 0.3 - 1), Povm(dyads(np.eye(4, dtype=complex))))
def test_accessible_info_matches_the_pair_by_pair_traces(draw, m):
    """The one product against tr(S_a·E_k) taken pair by pair; about 16
    terms of size at most 1 per trace and a log per table entry: 1e-13."""
    ensemble = conditioned_ancilla_from_state(general_state(draw[0], *draw[1]))
    cond = [[np.trace(s @ e).real for e in m.elements] for s in ensemble.states]
    want = mutual_information(np.maximum(cond, 0.0) / len(ensemble.states))
    assert abs(accessible_info(ensemble, m) - want) <= 1e-13


def test_conjugate_povm_involution_and_reality():
    point = FamilyPoint(0.35, -0.55)
    m = analytic_povm(point)
    mc = conjugate_povm(m)
    assert any(np.max(np.abs(a - b)) > 1e-6 for a, b in zip(m.elements, mc.elements))
    back = conjugate_povm(mc)
    for a, b in zip(m.elements, back.elements):
        assert np.array_equal(a, b)
    real = Povm(elements=(np.eye(4, dtype=complex),))
    for a, b in zip(real.elements, conjugate_povm(real).elements):
        assert np.array_equal(a, b)


def test_conjugate_gives_same_information():
    point = FamilyPoint(0.35, -0.55)
    ens = conditioned_ancilla(point)
    m = analytic_povm(point)
    base = accessible_info(ens, m)
    assert abs(accessible_info(ens, conjugate_povm(m)) - base) <= 1e-12


def test_convex_combine_weights_and_degeneracy():
    point = FamilyPoint(0.3, -0.5)
    ens = conditioned_ancilla(point)
    m = analytic_povm(point)
    mc = conjugate_povm(m)
    assert convex_combine(m, mc, 1.0).elements[0] == pytest.approx(m.elements[0])
    base = accessible_info(ens, m)
    for w in (0.1, 0.3, 0.5, 0.7, 0.9):
        mixed = convex_combine(m, mc, w)
        validate_povm(mixed)
        assert abs(accessible_info(ens, mixed) - base) <= 1e-10
    with pytest.raises(OutOfRange):
        convex_combine(m, mc, 1.5)
    with pytest.raises(DimensionMismatch):
        convex_combine(m, Povm(mc.elements[:2]), 0.5)


def test_equal_weight_combination_real_and_rank_two():
    point = FamilyPoint(0.3, -0.5)
    m = analytic_povm(point)
    mixed = convex_combine(m, conjugate_povm(m), 0.5)
    for el in mixed.elements:
        assert np.max(np.abs(el.imag)) <= 1e-12
        w = np.sort(np.linalg.eigvalsh(el))[::-1]
        assert w[1] > 1e-3  # genuinely rank two
        assert w[2] <= 1e-12


def test_random_povm_never_beats_hsw_bound(rng):
    for _ in range(15):
        point = random_feasible_point(rng)
        ens = conditioned_ancilla(point)
        bound = hsw_bound(ens)
        kets = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        gram = kets.T @ kets.conj()  # sum of the dyads
        lam, vec = np.linalg.eigh(gram)
        inv_sqrt = vec @ np.diag(1 / np.sqrt(lam)) @ vec.conj().T
        kets = kets @ inv_sqrt.T
        m = Povm(elements=tuple(np.outer(k, k.conj()) for k in kets))
        validate_povm(m)
        assert accessible_info(ens, m) <= bound + 1e-9
        assert accessible_info(ens, analytic_povm(point)) <= bound + 1e-9


def test_optimizer_reaches_analytic_value():
    # (0.09, -0.9) lies near the lower edge, where the oracle's slowest calls are
    for eps, c22 in ((0.3, -0.4), (0.09, -0.9)):
        ens = conditioned_ancilla(FamilyPoint(eps, c22))
        cfg = OptimizerConfig(restarts=8, max_iterations=500, seed=5)
        result = optimize_povm(ens, cfg)
        want = mi_eve_analytic(c22)
        assert result.info >= want - 1e-5
        assert result.info <= want + 1e-6
        assert len(result.restart_values) == 8
        # every restart stops stationary, well before the cap
        assert len(result.restart_iterations) == len(result.restart_residuals) == 8
        assert max(result.restart_residuals) <= STATIONARY_TOL
        assert max(result.restart_iterations) < 500


def test_optimizer_deterministic():
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.4))
    cfg = OptimizerConfig(restarts=3, max_iterations=120, seed=9)
    a = optimize_povm(ens, cfg)
    b = optimize_povm(ens, cfg)
    assert a.info == b.info
    assert a.restart_values == b.restart_values
    for x, y in zip(a.povm.elements, b.povm.elements):
        assert np.array_equal(x, y)


def test_optimizer_trivial_ensembles():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1
    same = AncillaEnsemble(states=(pure, pure, pure, pure))
    res = optimize_povm(same, OptimizerConfig(restarts=2, max_iterations=50, seed=1))
    assert res.info <= 1e-12
    res = optimize_povm(
        conditioned_ancilla(FamilyPoint(0.0, -1.0)),
        OptimizerConfig(restarts=2, max_iterations=50, seed=1),
    )
    assert res.info <= 1e-12


def bloch_circle_kets(angles):
    """Qubit kets cos(θ/2)|0⟩ + sin(θ/2)|1⟩, Bloch vectors (sin θ, 0, cos θ)."""
    angles = np.asarray(angles, dtype=float)
    return np.stack((np.cos(angles / 2), np.sin(angles / 2)), axis=1).astype(complex)


def assert_reaches(ensemble, want):
    result = optimize_povm(ensemble, OptimizerConfig(restarts=8, max_iterations=500, seed=0))
    assert want - 1e-8 <= result.info <= want + 1e-12


def test_trine_reaches_its_known_accessible_information():
    # three equiprobable qubit states 120° apart on the Bloch circle: the
    # anti-trine measurement, 2/3 of each antipodal projector, attains
    # log2(3/2) (Sasaki et al., Phys. Rev. A 59, 3325, 1999), and the states
    # average to I/2, so χ = 1
    angles = 2 * np.pi * np.arange(3) / 3
    trine = AncillaEnsemble(dyads(bloch_circle_kets(angles)))
    want = np.log2(1.5)
    anti_trine = Povm(2 / 3 * dyads(bloch_circle_kets(angles + np.pi)))
    validate_povm(anti_trine)
    assert abs(accessible_info(trine, anti_trine) - want) <= 1e-15
    assert abs(hsw_bound(trine) - 1) <= 1e-12
    assert_reaches(trine, want)


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.7, 0.95])
def test_two_pure_states_reach_levitins_accessible_information(overlap):
    # two equiprobable pure qubit states with overlap c are best told apart
    # by the Helstrom measurement: 1 − h((1 − √(1 − c²))/2) bits (Levitin, 1995)
    half = np.arccos(overlap)
    pair = AncillaEnsemble(dyads(bloch_circle_kets([-half, half])))
    assert_reaches(pair, 1 - binary_entropy((1 - np.sqrt(1 - overlap**2)) / 2))


def test_optimizer_spends_at_most_max_iterations_and_returns_best_restart():
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    res = optimize_povm(ens, OptimizerConfig(restarts=2, max_iterations=5))
    assert 1 <= res.iterations <= 5
    assert res.iterations == max(res.restart_iterations)
    assert any(  # the cap, not stationarity, stopped some restart
        residual > STATIONARY_TOL and n == 5
        for residual, n in zip(res.restart_residuals, res.restart_iterations)
    )
    assert res.info == max(res.restart_values)
    assert abs(accessible_info(ens, res.povm) - res.info) <= 1e-12
    assert len(res.povm.elements) == 16  # d² outcomes for d = 4


# cases of test_properties' INTEGER_ARGUMENTS under the names they had before it


def test_optimizer_config_validation():
    for bad in (0, MAX_RESTARTS + 1, 10_000_000):
        assert_integer_refused("OptimizerConfig restarts", bad)
    for bad in (0, -5):
        assert_integer_refused("OptimizerConfig max_iterations", bad)


@pytest.mark.parametrize(
    "field, bad",
    [("restarts", v) for v in (0, MAX_RESTARTS + 1, 2.5, True, "8")]
    + [("max_iterations", v) for v in (0, np.inf, 10.0)]
    + [("seed", v) for v in (-1, np.nan, 1.5)],
)
def test_optimizer_config_checks_its_own_fields(field, bad):
    assert_integer_refused(f"OptimizerConfig {field}", bad)


def test_optimizer_rejects_negative_seed():
    assert_integer_refused("OptimizerConfig seed", -1)


BATCH_ENSEMBLES = {
    "interior": lambda: conditioned_ancilla(FamilyPoint(0.3, -0.4)),
    "near-edge": lambda: conditioned_ancilla(FamilyPoint(0.1, -0.8)),
    "general-state": lambda: conditioned_ancilla_from_state(
        general_state(0.25, 0, 0, 0, 0, -0.6, 0, 0)
    ),
}


@pytest.mark.parametrize("ensemble", BATCH_ENSEMBLES.values(), ids=BATCH_ENSEMBLES.keys())
def test_restart_result_does_not_depend_on_its_batch(ensemble):
    """Eight restarts run together end exactly as each one run alone: the
    same kets, value, iteration count and residual, bit for bit, whether
    an iteration keeps every trial, some or none."""
    ens = ensemble()
    starts = _random_starts(3, 8, 4)
    states = np.repeat(ens.states[None], 8, 0)
    together = _conjugate_gradient(starts.copy(), states, 300)
    for i in range(len(starts)):
        alone = _conjugate_gradient(starts[i : i + 1].copy(), states[i : i + 1], 300)
        for batch, solo in zip(together, alone):
            assert np.array_equal(batch[i : i + 1], solo)


def test_restart_result_does_not_depend_on_its_batch_mixed():
    """Three ensembles' restarts in one batch end exactly as each
    ensemble's restarts run as their own batch, bit for bit, while the
    batch loses restarts at different iterations."""
    ensembles = [make() for make in BATCH_ENSEMBLES.values()]
    starts = _random_starts(3, 4, 4)
    states = np.repeat(np.stack([ens.states for ens in ensembles]), 4, axis=0)
    mixed = _conjugate_gradient(np.concatenate([starts] * 3), states, 300)
    assert len(set(mixed[2])) > 1  # restarts leave at different iterations
    for j in range(len(ensembles)):
        alone = _conjugate_gradient(starts.copy(), states[4 * j : 4 * j + 4], 300)
        for batch, own in zip(mixed, alone):
            assert np.array_equal(batch[4 * j : 4 * j + 4], own)


def test_optimized_povm_is_valid_and_below_collective_bound(rng):
    point = FamilyPoint(0.5, -0.3)
    ens = conditioned_ancilla(point)
    res = optimize_povm(ens, OptimizerConfig(restarts=4, max_iterations=200, seed=7))
    validate_povm(res.povm)
    assert abs(accessible_info(ens, res.povm) - res.info) <= 1e-12
    assert res.info <= hsw_bound(ens) + 1e-9


def polar_factor(kets):
    """The nearest complete ket sets: K·(K†K)^{-1/2}, by eigendecomposition."""
    lam, vec = np.linalg.eigh(kets.swapaxes(1, 2) @ kets.conj())
    inv_sqrt = (vec / np.sqrt(lam)[:, None, :]) @ vec.conj().swapaxes(1, 2)
    return kets @ inv_sqrt.swapaxes(1, 2)


def random_tangent(rng, kets):
    """A tangent vector at each K, built without ``_tangent``: K·A with A
    skew-Hermitian plus a part orthogonal to K's columns."""
    r, n, d = kets.shape
    z = rng.normal(size=(r, n, d)) + 1j * rng.normal(size=(r, n, d))
    a = rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d))
    k_adj = kets.conj().swapaxes(1, 2)
    return kets @ (a - a.conj().swapaxes(1, 2)) + z - kets @ (k_adj @ z)


def test_random_starts_match_per_matrix_draws():
    """One Gaussian draw per restart gives the starts of 2d per-matrix draws,
    real part then imaginary part of each unitary, as every seed relies on."""
    d = 4
    for seed in (0, 1, 12345, 2**62):
        for restarts in (1, 4, 20):
            children = np.random.SeedSequence(seed).spawn(restarts)
            for child, kets in zip(children, _random_starts(seed, restarts, d)):
                rng = np.random.default_rng(child)
                g = np.array(
                    [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(d)]
                )
                q, r = np.linalg.qr(g)
                phases = np.diagonal(r, axis1=1, axis2=2)
                q = q * (phases / np.abs(phases))[:, None, :]
                want = q.swapaxes(1, 2).reshape(d * d, d) / np.sqrt(d)
                assert np.array_equal(kets, want)


def test_tangent_projection_keeps_tangents_and_makes_them(rng):
    kets = _random_starts(7, 5, 4)
    eta = random_tangent(rng, kets)
    assert np.max(np.abs(_tangent(kets, eta) - eta)) <= 1e-12
    z = rng.normal(size=kets.shape) + 1j * rng.normal(size=kets.shape)
    skew = kets.conj().swapaxes(1, 2) @ _tangent(kets, z)
    assert np.max(np.abs(skew + skew.conj().swapaxes(1, 2))) <= 1e-12


def test_retraction_of_tangent_step_is_complete_and_near_polar(rng):
    kets = _random_starts(7, 5, 4)
    eta = random_tangent(rng, kets)
    eta /= np.linalg.norm(eta, axis=(1, 2))[:, None, None]
    for t in (1e-1, 1e-2, 1e-3, 1.0, 1e3):
        step = kets + t * eta
        out = _retract(step)
        assert np.max(np.abs(out.swapaxes(1, 2) @ out.conj() - np.eye(4))) <= 1e-12
        if t < 1:  # a rotation of order t² away from the polar factor
            assert np.max(np.abs(out - polar_factor(step))) <= t**2


def test_batch_kernel_matches_accessible_info_and_reference_gradient(rng):
    """The batched value, ratios and S·k kernel against independent forms,
    at kets retracted from a tangent step as the ascent makes them, and the
    tangent gradient against a central difference along a tangent step."""
    r, n, d = 5, 16, 4
    start = _random_starts(3, r, d)
    kets = _retract(start + 0.5 * random_tangent(rng, start))
    dyads = np.einsum("rki,rkj->rkij", kets, kets.conj())
    assert np.max(np.abs(dyads.sum(axis=1) - np.eye(d))) <= 1e-12

    for _ in range(4):
        ens = conditioned_ancilla(random_feasible_point(rng))
        states = np.stack(ens.states).astype(complex)
        states_cols = np.repeat(states.transpose(2, 0, 1).reshape(1, d, -1), r, 0)
        values, ratios, sk = _batch_info_and_ratios(kets, states_cols)

        for v, restart in zip(values, dyads):
            m = Povm(elements=restart)
            assert abs(v - accessible_info(ens, m)) <= 1e-12

        cond = np.einsum("rki,aij,rkj->rak", kets.conj(), states, kets).real
        joint = np.clip(cond, 0.0, None) / len(states)
        outcome = joint.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(joint > 0, np.log2(cond) - np.log2(outcome), 0.0)
        reference = np.einsum("rak,aij,rkj->rki", want / len(states), states, kets)
        gradient = _gradient(ratios, sk)
        assert np.max(np.abs(gradient - reference)) <= 1e-12

        # the value's derivative along a tangent η is 2·Re tr(ξ†η)
        xi = _tangent(kets, gradient)
        eta = random_tangent(rng, kets)
        h = 1e-5
        up, _, _ = _batch_info_and_ratios(_retract(kets + h * eta), states_cols)
        down, _, _ = _batch_info_and_ratios(_retract(kets - h * eta), states_cols)
        slope = 2 * np.einsum("rki,rki->r", xi.conj(), eta).real
        assert np.max(np.abs((up - down) / (2 * h) - slope)) <= 1e-7 * (1 + np.abs(slope).max())


def test_next_step_takes_the_clipped_peak_of_the_fitted_quadratic(rng):
    # the peak of q(s) = 2s − shortfall·s² (t = 1, slope 1, f(0) = 0) is 1/shortfall
    got = _next_step(np.ones(4), np.ones(4), np.array([3.0, 100.0, 1.5, -1.0]), False)
    assert np.allclose(got, [1 / 3, 0.1, 0.5, 0.5], rtol=0, atol=1e-15)
    # after a kept trial the peak is clipped to [1.2t, 3t], and a convex fit
    # (shortfall <= 0) has no peak and gives 3t
    got = _next_step(np.full(5, 2.0), np.ones(5), np.array([1.0, 0.5, 8.0, 0.0, -1.0]), True)
    assert np.allclose(got, [4.0, 6.0, 2.4, 6.0, 6.0], rtol=0, atol=1e-15)

    # real trials along the tangent gradient, over a range of steps
    d = 4
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    kets = _random_starts(11, 6, d)
    states_cols = np.repeat(ens.states.transpose(2, 0, 1).reshape(1, d, -1), len(kets), 0)
    values, ratios, sk = _batch_info_and_ratios(kets, states_cols)
    eta = _tangent(kets, _gradient(ratios, sk))
    slope = _inner(eta, eta)
    rejected = unclipped = kept_unclipped = 0
    for t in np.geomspace(0.05, 20.0, 12):
        step = np.full(len(kets), t)
        trial, _, _ = _batch_info_and_ratios(_retract(kets + t * eta), states_cols)
        bad = trial < values + 1e-4 * step * slope
        shortfall = values + 2 * step * slope - trial
        both = _next_step(step, slope, shortfall, ~bad)
        nxt = both[bad]
        assert np.all((0.1 * t <= nxt) & (nxt <= 0.5 * t))
        # q(s) = f(0) + 2·slope·s + a·s² through f(t) is concave, and an
        # unclipped step is where q' vanishes
        a = ((trial - values - 2 * t * slope) / t**2)[bad]
        assert np.all(a < 0)
        inside = (0.1 * t < nxt) & (nxt < 0.5 * t)
        q_prime = 2 * slope[bad] + 2 * a * nxt
        assert np.all(np.abs(q_prime[inside]) <= 1e-9 * slope[bad][inside])
        rejected += bad.sum()
        unclipped += inside.sum()

        # kept trials: the same fit, clipped to [1.2t, 3t], 3t where it is convex
        good = ~bad
        nxt = both[good]
        assert np.all((1.2 * t <= nxt) & (nxt <= 3 * t))
        a = ((trial - values - 2 * t * slope) / t**2)[good]
        assert np.all(nxt[a >= 0] == 3 * t)
        inside = (1.2 * t < nxt) & (nxt < 3 * t)
        assert np.all(a[inside] < 0)
        q_prime = 2 * slope[good] + 2 * a * nxt
        assert np.all(np.abs(q_prime[inside]) <= 1e-9 * slope[good][inside])
        kept_unclipped += inside.sum()
    assert rejected and unclipped and kept_unclipped


def test_random_starts_keep_one_read_only_entry():
    assert _random_starts.cache_info().maxsize == 1
    starts = _random_starts(5, 3, 4)
    assert not starts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        starts[0, 0, 0] = 0
    assert _random_starts(5, 3, 4) is starts
    assert np.array_equal(starts, _random_starts.__wrapped__(5, 3, 4))


def test_optimizer_result_is_the_same_from_cached_starts():
    """A second call with one config reuses the cached starts and returns
    what the first call, which drew them, returned."""
    _random_starts.cache_clear()
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.4))
    cfg = OptimizerConfig(restarts=4, max_iterations=100, seed=2)
    miss = optimize_povm(ens, cfg)
    assert _random_starts.cache_info().hits == 0
    hit = optimize_povm(ens, cfg)
    assert _random_starts.cache_info().hits == 1
    assert np.array_equal(miss.povm.elements, hit.povm.elements)
    for field in ("info", "restart_values", "iterations", "restart_iterations"):
        assert getattr(miss, field) == getattr(hit, field)
    assert miss.restart_residuals == hit.restart_residuals


def test_every_new_direction_has_nonnegative_beta_and_ascends(monkeypatch):
    """β and the slope of every direction ``_direction`` returns, against
    the textbook hybrid β with the old gradient explicitly projected."""
    records = []
    at = []
    tangent, direction = povm_mod._tangent, povm_mod._direction

    # snapshots: the arguments can be views of arrays the ascent later
    # overwrites in place, and the first call's results become those arrays
    def recording_tangent(kets, z):
        at.append(kets.copy())
        return tangent(kets, z)

    def recording_direction(new_grad, moved, grad):
        out = direction(new_grad, moved, grad)
        copies = tuple(x.copy() for x in out)
        records.append((at[-1], new_grad.copy(), moved.copy(), grad.copy(), copies))
        return out

    monkeypatch.setattr(povm_mod, "_tangent", recording_tangent)
    monkeypatch.setattr(povm_mod, "_direction", recording_direction)
    starts = []
    for eps, c22 in ((0.3, -0.4), (0.09, -0.9)):
        ens = conditioned_ancilla(FamilyPoint(eps, c22))
        first = len(records)
        optimize_povm(ens, OptimizerConfig(restarts=4, max_iterations=200, seed=3))
        starts.append(records.pop(first))
    assert len(records) > 50

    # the first direction comes from a zero old direction and gradient,
    # where β is 0/0 by the reference below: it is ξ itself
    for _, xi, moved, grad, (new_dir, slope, sq) in starts:
        assert not (moved.any() or grad.any())
        assert np.array_equal(new_dir, xi)
        assert np.array_equal(slope, sq)
        assert np.allclose(sq, _inner(xi, xi), rtol=1e-12, atol=0)
        assert np.all(sq > 0)

    for trial, xi, moved, grad, (new_dir, slope, sq) in records:
        y = xi - _tangent(trial, grad)
        c = -_inner(moved, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            hybrid = np.minimum(_inner(xi, y) / c, _inner(xi, xi) / c)
        want = np.where(c > 0, np.maximum(hybrid, 0.0), 0.0)
        beta = _inner(new_dir - xi, moved) / _inner(moved, moved)
        assert np.max(np.abs(new_dir - xi - beta[:, None, None] * moved)) <= 1e-12
        assert np.all(beta >= -1e-12)
        # the hybrid β, unless its direction would not ascend: then β = 0
        ascends = _inner(xi, xi + want[:, None, None] * moved) > 0
        assert np.all(np.abs(beta - np.where(ascends, want, 0.0)) <= 1e-8 * (1 + want))
        assert np.allclose(slope, _inner(xi, new_dir), rtol=1e-12, atol=0)
        assert np.allclose(sq, _inner(xi, xi), rtol=1e-12, atol=0)
        assert np.all(slope > 0)
