import numpy as np
import pytest

from bb84eve import (
    AncillaEnsemble,
    FamilyPoint,
    OptimizerConfig,
    Povm,
    accessible_info,
    analytic_povm,
    canonical_optimal_povm,
    conditioned_ancilla,
    conjugate_povm,
    convex_combine,
    hsw_bound,
    mi_eve_analytic,
    optimize_povm,
    validate_povm,
)
from bb84eve.errors import (
    DimensionMismatch,
    InfeasiblePoint,
    NotHermitian,
    OutOfRange,
)
from bb84eve import povm as povm_mod
from bb84eve.povm import (
    MAX_RESTARTS,
    STATIONARY_TOL,
    _backtrack,
    _batch_info_and_ratios,
    _gradient,
    _inner,
    _random_starts,
    _retract,
    _tangent,
)
from bb84eve.states import ZERO_WEIGHT, bell_weights
from conftest import random_feasible_point

# frozen: 0.5 * correlation_info(sqrt(0.96))
HALF_PHI_SQRT096 = 0.45926554249282286


def support_projector(point):
    alive = bell_weights(point) > ZERO_WEIGHT
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
    with pytest.raises(ValueError):
        validate_povm(Povm((bad, np.eye(2) / 2)))


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


def test_equal_weight_combination_real_and_rank_two():
    point = FamilyPoint(0.3, -0.5)
    m = analytic_povm(point)
    mixed = convex_combine(m, conjugate_povm(m), 0.5)
    for el in mixed.elements:
        assert np.max(np.abs(el.imag)) <= 1e-12
        w = np.sort(np.linalg.eigvalsh(el))[::-1]
        assert w[1] > 1e-3  # genuinely rank two
        assert w[2] <= 1e-12
    canonical = canonical_optimal_povm(point)
    for a, b in zip(mixed.elements, canonical.elements):
        assert np.array_equal(a, b)


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


def test_optimizer_config_validation(monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("no start may be drawn")

    monkeypatch.setattr(povm_mod, "_random_starts", no_start)
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    # above MAX_RESTARTS the batch would not fit in memory
    for bad in (0, MAX_RESTARTS + 1, 10_000_000):
        with pytest.raises(OutOfRange):
            optimize_povm(ens, OptimizerConfig(restarts=bad))
    # a cap below 1 would return the unoptimized start
    for bad in (0, -5):
        with pytest.raises(OutOfRange):
            optimize_povm(ens, OptimizerConfig(max_iterations=bad))


def test_optimizer_rejects_negative_seed(monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("no start may be drawn")

    monkeypatch.setattr(povm_mod, "_random_starts", no_start)
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    with pytest.raises(OutOfRange):
        optimize_povm(ens, OptimizerConfig(seed=-1))


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
        priors = np.asarray(ens.priors)
        states_cols = states.transpose(2, 0, 1).reshape(d, -1)
        values, ratios, sk = _batch_info_and_ratios(kets, states_cols, priors)

        for v, restart in zip(values, dyads):
            m = Povm(elements=restart)
            assert abs(v - accessible_info(ens, m)) <= 1e-12

        cond = np.einsum("rki,aij,rkj->rak", kets.conj(), states, kets).real
        joint = priors[None, :, None] * np.clip(cond, 0.0, None)
        outcome = joint.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(joint > 0, np.log2(cond) - np.log2(outcome), 0.0)
        reference = np.einsum(
            "rak,aij,rkj->rki", priors[None, :, None] * want, states, kets
        )
        gradient = _gradient(priors, ratios, sk)
        assert np.max(np.abs(gradient - reference)) <= 1e-12

        # the value's derivative along a tangent η is 2·Re tr(ξ†η)
        xi = _tangent(kets, gradient)
        eta = random_tangent(rng, kets)
        h = 1e-5
        up, _, _ = _batch_info_and_ratios(_retract(kets + h * eta), states_cols, priors)
        down, _, _ = _batch_info_and_ratios(_retract(kets - h * eta), states_cols, priors)
        slope = 2 * np.einsum("rki,rki->r", xi.conj(), eta).real
        assert np.max(np.abs((up - down) / (2 * h) - slope)) <= 1e-7 * (1 + np.abs(slope).max())


def test_backtrack_takes_the_clipped_peak_of_the_fitted_quadratic(rng):
    # the peak of q(s) = 2s − shortfall·s² (t = 1, slope 1, f(0) = 0) is 1/shortfall
    got = _backtrack(np.ones(4), np.ones(4), np.array([3.0, 100.0, 1.5, -1.0]))
    assert np.allclose(got, [1 / 3, 0.1, 0.5, 0.5], rtol=0, atol=1e-15)

    # real rejected trials along the tangent gradient, over a range of steps
    d = 4
    ens = conditioned_ancilla(FamilyPoint(0.3, -0.5))
    states_cols = ens.states.transpose(2, 0, 1).reshape(d, -1)
    kets = _random_starts(11, 6, d)
    values, ratios, sk = _batch_info_and_ratios(kets, states_cols, ens.priors)
    eta = _tangent(kets, _gradient(ens.priors, ratios, sk))
    slope = _inner(eta, eta)
    rejected = unclipped = 0
    for t in np.geomspace(0.05, 20.0, 12):
        step = np.full(len(kets), t)
        trial, _, _ = _batch_info_and_ratios(_retract(kets + t * eta), states_cols, ens.priors)
        bad = trial < values + 1e-4 * step * slope
        shortfall = values + 2 * step * slope - trial
        nxt = _backtrack(step, slope, shortfall)[bad]
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
    assert rejected and unclipped


def test_every_new_direction_has_nonnegative_beta_and_ascends(monkeypatch):
    """β and the slope of every direction ``_direction`` returns, against
    the textbook hybrid β with the old gradient explicitly projected."""
    records = []
    at = []
    tangent, direction = povm_mod._tangent, povm_mod._direction

    def recording_tangent(kets, z):
        at.append(kets)
        return tangent(kets, z)

    def recording_direction(new_grad, moved, grad):
        out = direction(new_grad, moved, grad)
        records.append((at[-1], new_grad, moved, grad, out))
        return out

    monkeypatch.setattr(povm_mod, "_tangent", recording_tangent)
    monkeypatch.setattr(povm_mod, "_direction", recording_direction)
    for eps, c22 in ((0.3, -0.4), (0.09, -0.9)):
        ens = conditioned_ancilla(FamilyPoint(eps, c22))
        optimize_povm(ens, OptimizerConfig(restarts=4, max_iterations=200, seed=3))
    assert len(records) > 50

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
