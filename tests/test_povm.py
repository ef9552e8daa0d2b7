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
from bb84eve.povm import MAX_RESTARTS, _batch_info_and_ratios, _gradient, _retract
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
    point = FamilyPoint(0.3, -0.4)
    ens = conditioned_ancilla(point)
    cfg = OptimizerConfig(restarts=8, max_iterations=500, seed=5)
    result = optimize_povm(ens, cfg)
    want = mi_eve_analytic(-0.4)
    assert result.info >= want - 1e-5
    assert result.info <= want + 1e-6
    assert len(result.restart_values) == 8


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
    assert res.info == max(res.restart_values)
    assert abs(accessible_info(ens, res.povm) - res.info) <= 1e-12
    assert len(res.povm.elements) == 16  # d² outcomes for d = 4


def test_optimizer_config_validation(monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("no start may be drawn")

    monkeypatch.setattr(povm_mod, "_random_start", no_start)
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

    monkeypatch.setattr(povm_mod, "_random_start", no_start)
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


def test_batch_kernel_matches_accessible_info_and_reference_gradient(rng):
    """The batched value, ratios and S·k kernel against independent forms."""
    r, n, d = 5, 16, 4
    kets = rng.normal(size=(r, n, d)) + 1j * rng.normal(size=(r, n, d))
    kets = _retract(kets)
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
        assert np.max(np.abs(_gradient(priors, ratios, sk) - reference)) <= 1e-12
