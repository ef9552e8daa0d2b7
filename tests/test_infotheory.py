from decimal import Decimal, localcontext

import numpy as np
import pytest

from bb84eve import (
    FamilyPoint,
    binary_entropy,
    concurrence,
    conditioned_ancilla,
    correlation_info,
    bell_diagonal_state,
    entanglement_numbers,
    hsw_bound,
    hsw_optimal,
    joint_table,
    key_rate,
    mi_alice_bob,
    mi_eve_analytic,
    mi_eve_optimal,
    mutual_information,
    optimal_c22,
    state_from_pauli,
    unbiased_noise_state,
)
from bb84eve.errors import DimensionMismatch, NotNormalized, NotPositive, OutOfRange
from conftest import random_feasible_point

# frozen oracle values, evaluated directly from the defining formulas
PHI_08 = 0.5310044064107189
MI_AB_02 = 0.26550220320535944


def test_correlation_info_endpoints_and_value():
    assert correlation_info(0.0) == 0.0
    assert correlation_info(1.0) == 1.0
    assert abs(correlation_info(0.8) - PHI_08) <= 1e-15
    with pytest.raises(OutOfRange):
        correlation_info(1.1)


def test_correlation_info_monotone_and_convex():
    x = np.linspace(0, 1, 10_001)
    y = np.array([correlation_info(v) for v in x])
    assert np.all(np.diff(y) >= 0)
    assert np.all(np.diff(y, 2) >= -1e-12)


def _correlation_info_exact(x: Decimal) -> Decimal:
    """(1/2)[(1-x)log2(1-x) + (1+x)log2(1+x)] in decimal arithmetic, to
    about 50 digits.

    The two terms cancel to about x²/(2 ln 2), so the precision grows with
    x's exponent: at a fixed 50 digits their rounding would swamp the sum
    below about x = 1e-25, and the reference, not the code, would be wrong.
    """
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * abs(x.adjusted())
        low = 0 if x == 1 else (1 - x) * (1 - x).ln()
        return (low + (1 + x) * (1 + x).ln()) / (2 * Decimal(2).ln())


def _relative_error(got: float, exact: Decimal) -> float:
    return float(abs(Decimal(got) - exact) / exact)


def test_correlation_info_keeps_its_relative_accuracy_down_to_tiny_x():
    xs = 10.0 ** np.random.default_rng(5).uniform(-150, 0, 1000)
    worst = max(
        _relative_error(correlation_info(x), _correlation_info_exact(Decimal(x)))
        for x in map(float, xs)
    )
    assert worst <= 1e-14


def test_mi_eve_analytic_keeps_its_relative_accuracy_near_c22_of_one():
    """1 - c22² is formed as (1 - c22)(1 + c22), which loses nothing near ±1."""
    deltas = 10.0 ** np.random.default_rng(6).uniform(-16, 0, 500)
    worst = 0.0
    for c22 in (sign * (1 - d) for d in map(float, deltas) for sign in (1, -1)):
        c = Decimal(c22)
        with localcontext() as ctx:
            ctx.prec = 80
            x = ((1 - c) * (1 + c)).sqrt()
        exact = _correlation_info_exact(x) / 2
        worst = max(worst, _relative_error(mi_eve_analytic(c22), exact))
    assert worst <= 1e-14


def test_mi_alice_bob_values():
    assert mi_alice_bob(0.0) == 0.5
    assert mi_alice_bob(1.0) == 0.0
    assert abs(mi_alice_bob(0.2) - MI_AB_02) <= 1e-15
    grid = np.linspace(0, 1, 101)
    vals = [mi_alice_bob(v) for v in grid]
    assert np.all(np.diff(vals) <= 0)


def test_mi_alice_bob_matches_table_mutual_information():
    for eps in (0.05, 0.2, 0.5, 0.95):
        table = joint_table(unbiased_noise_state(eps))
        assert abs(mutual_information(table) - mi_alice_bob(eps)) <= 1e-12


def test_mi_eve_analytic_values():
    assert mi_eve_analytic(0.0) == 0.5
    assert mi_eve_analytic(1.0) == 0.0
    assert mi_eve_analytic(-1.0) == 0.0
    assert abs(mi_eve_analytic(-0.6) - MI_AB_02) <= 1e-15


def test_mi_eve_analytic_even_and_decreasing_in_magnitude():
    grid = np.linspace(0, 1, 201)
    vals = [mi_eve_analytic(c) for c in grid]
    for c in grid:
        assert mi_eve_analytic(c) == mi_eve_analytic(-c)
    assert np.all(np.diff(vals) <= 1e-15)


def test_mi_eve_optimal_branches():
    assert mi_eve_optimal(0.0) == 0.0
    assert mi_eve_optimal(0.5) == 0.5
    assert mi_eve_optimal(0.8) == 0.5
    assert abs(mi_eve_optimal(0.2) - MI_AB_02) <= 1e-15
    assert abs(mi_eve_optimal(0.5 - 1e-12) - 0.5) <= 1e-9  # continuous junction


def test_mi_eve_optimal_equals_analytic_at_minimizer():
    for eps in np.linspace(0, 1, 41):
        c22 = optimal_c22(float(eps))
        assert -1 <= c22 <= max(2 * eps - 1, 0) + 1e-15
        assert abs(mi_eve_optimal(float(eps)) - mi_eve_analytic(c22)) <= 1e-12


def test_mutual_information_independence_and_correlation():
    r = np.array([0.3, 0.7])
    c = np.array([0.6, 0.4])
    assert abs(mutual_information(np.outer(r, c))) <= 1e-12
    assert abs(mutual_information(np.array([[0.5, 0], [0, 0.5]])) - 1.0) <= 1e-15


def test_mutual_information_is_finite_where_a_marginal_product_underflows():
    # 0.5 · 4.9e-324 rounds to 0 under the subnormal entry at [1, 0]
    table = np.array([[0, 0.25, 0.25], [4.9e-324, 0.5, 4.9e-324]])
    zeroed = np.where(table < 1e-300, 0.0, table)
    assert abs(mutual_information(table) - mutual_information(zeroed)) <= 1e-15


def test_mutual_information_validation():
    with pytest.raises(NotNormalized):
        mutual_information(np.array([[0.5, 0.2], [0.2, 0.2]]))
    with pytest.raises(NotNormalized):
        mutual_information(np.array([[-0.1, 0.6], [0.3, 0.2]]))
    with pytest.raises(NotNormalized, match=r"^entries sum to nan, not 1$"):
        mutual_information(np.array([[np.nan, 0.5], [0.25, 0.25]]))


def test_hsw_bound_trivial_cases():
    assert abs(hsw_bound(conditioned_ancilla(FamilyPoint(0.0, -1.0)))) <= 1e-12
    assert abs(hsw_bound(conditioned_ancilla(FamilyPoint(1.0, 0.0))) - 1.0) <= 1e-12


def test_hsw_bound_on_maxent_locus_matches_closed_form():
    for eps in np.linspace(0, 1, 25):
        point = FamilyPoint(float(eps), -((1 - eps) ** 2))
        got = hsw_bound(conditioned_ancilla(point))
        assert abs(got - (1 - correlation_info(1 - eps))) <= 1e-10


def test_hsw_optimal_values():
    assert hsw_optimal(0.0) == 0.0
    assert hsw_optimal(1.0) == 1.0
    # threshold where the bound meets the Alice-Bob curve sits at I_AB = 1/3
    assert abs(mi_alice_bob(0.1230) - 1 / 3) <= 2e-5
    assert abs(hsw_optimal(0.1230) - 1 / 3) <= 4e-5


def test_entanglement_numbers_examples():
    en = entanglement_numbers(FamilyPoint(0.0, -1.0))
    assert (en.concurrence, en.separability) == (1.0, 0.0)
    en = entanglement_numbers(FamilyPoint(0.2, -0.6))
    assert abs(en.concurrence - 0.6) <= 1e-15
    assert abs(en.separability - 0.4) <= 1e-15
    en = entanglement_numbers(FamilyPoint(0.5, 0.0))
    assert en.concurrence == 0.0
    assert en.separability == 1.0


def test_entanglement_sum_rule_and_general_formula(rng):
    for _ in range(60):
        point = random_feasible_point(rng)
        en = entanglement_numbers(point)
        assert abs(en.separability + en.concurrence - 1) <= 1e-12
        general = concurrence(bell_diagonal_state(point))
        assert abs(en.concurrence - general) <= 1e-9


def test_concurrence_pure_states():
    from bb84eve import bell_basis

    singlet = bell_basis()[0]
    assert abs(concurrence(np.outer(singlet, singlet.conj())) - 1) <= 1e-10
    product = np.zeros((4, 4))
    product[0, 0] = 1
    assert concurrence(product) <= 1e-10


def test_concurrence_rejects_unphysical_and_wrong_shape():
    # eigenvalues (-0.375, 0.375, 0.375, 0.625)
    c = np.diag([1.0, -1.0, 0.5, -1.0])
    with pytest.raises(NotPositive):
        concurrence(state_from_pauli(c))
    with pytest.raises(DimensionMismatch):
        concurrence(np.eye(2) / 2)


def test_key_rate_thresholds():
    assert abs(key_rate(0.2, "minconc")) <= 1e-9
    assert abs(key_rate(0.0, "minconc") - 0.5) <= 1e-15
    assert abs(key_rate(0.12298094015744837, "hsw")) <= 1e-12
    assert abs(key_rate(0.1230, "hsw")) <= 1e-4
    with pytest.raises(ValueError):
        key_rate(0.2, "unknown")


def test_key_rate_single_sign_change_on_half_interval():
    grid = np.linspace(1e-6, 0.5, 4001)
    signs = np.sign([key_rate(float(e), "minconc") for e in grid])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    assert abs(grid[flips[0]] - 0.2) < 1e-3


def test_binary_entropy_oracle():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.1) - 0.4689955935892812) <= 1e-15
