import numpy as np
import pytest

from bb84eve import (
    CURVES,
    FamilyPoint,
    OptimizerConfig,
    bell_diagonal_state,
    eve_curve,
    find_threshold,
    max_entropy_c22,
    mi_alice_bob,
    mi_eve_optimal,
    nonsymmetric_search,
    scan_curves,
    von_neumann_entropy,
)
from bb84eve.analysis import C22_RULES, bisect_sign_change
from bb84eve.errors import NoSignChange, OutOfRange

EXPECTED_THRESHOLDS = {
    "honest": 0.2928932188134524,      # 1 - sqrt(1/2)
    "maxent": 0.21384862224257672,     # 1 - sqrt((sqrt(5)-1)/2)
    "minconc": 0.2,
    "hsw": 0.12298094015744837,        # where the Alice-Bob curve hits 1/3
}


def test_eve_curve_values():
    assert eve_curve("honest", 0.0) == 0.0
    assert abs(eve_curve("minconc", 0.2) - mi_alice_bob(0.2)) <= 1e-12
    assert abs(eve_curve("maxent", 0.2138486) - mi_alice_bob(0.2138486)) <= 1e-6
    assert abs(eve_curve("minconc", 0.5) - 0.5) <= 1e-15
    with pytest.raises(OutOfRange):
        eve_curve("honest", 0.6)
    with pytest.raises(ValueError):
        eve_curve("nope", 0.2)


def test_curve_rules_stay_feasible():
    assert CURVES == (*C22_RULES, "hsw")
    for rule in C22_RULES.values():
        for eps in np.linspace(0, 0.5, 101):
            c22 = rule(float(eps))
            assert -1 - 1e-12 <= c22 <= 2 * eps - 1 + 1e-12


def test_curve_ordering_on_plot_range():
    for eps in np.linspace(1e-4, 0.5, 200):
        a = eve_curve("honest", float(eps))
        b = eve_curve("maxent", float(eps))
        c = eve_curve("minconc", float(eps))
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_find_threshold_values():
    for curve, expected in EXPECTED_THRESHOLDS.items():
        res = find_threshold(curve, tolerance=1e-10)
        assert abs(res.epsilon_star - expected) <= 1e-6, curve
        assert res.residual <= 1e-10
        assert res.iterations <= 64
        assert res.converged, curve
        assert 0 < res.bracket_width <= 0.5 ** res.iterations
        assert abs(res.qber - res.epsilon_star / 2) <= 1e-15


def test_threshold_ordering():
    stars = {c: find_threshold(c).epsilon_star for c in EXPECTED_THRESHOLDS}
    assert stars["hsw"] < stars["minconc"] < stars["maxent"] < stars["honest"]


def test_find_threshold_deterministic_and_validated():
    a = find_threshold("honest", 1e-9)
    b = find_threshold("honest", 1e-9)
    assert a == b
    for tolerance in (1e-13, 2e-3, 0.5, np.inf, np.nan):
        with pytest.raises(OutOfRange):
            find_threshold("honest", tolerance)
    for tolerance in (1e-12, 1e-3):
        assert find_threshold("minconc", tolerance).residual <= tolerance


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_sign_change(lambda x: 1.0 + x * x, 0.0, 1.0, 1e-9)


def test_bisect_reports_unmet_tolerance():
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    root, residual, iterations, converged, width = bisect_sign_change(
        step, 0.0, 1.0, 1e-9
    )
    assert not converged
    assert residual == 1.0
    assert iterations == 64
    assert width <= 1e-15
    assert root - width <= 0.3 <= root + width


def test_max_entropy_c22_matches_closed_form():
    assert max_entropy_c22(0.0) == -1.0
    assert abs(max_entropy_c22(1.0) - 0.0) <= 1e-6
    assert abs(max_entropy_c22(0.3) + 0.49) <= 1e-6
    for eps in np.linspace(0.02, 1.0, 25):
        assert abs(max_entropy_c22(float(eps)) + (1 - eps) ** 2) <= 1e-6


def test_max_entropy_c22_is_the_argmax():
    eps = 0.4
    best = max_entropy_c22(eps)
    s_best = von_neumann_entropy(bell_diagonal_state(FamilyPoint(eps, best)))
    for c22 in np.linspace(-1, 2 * eps - 1, 50):
        s = von_neumann_entropy(bell_diagonal_state(FamilyPoint(eps, float(c22))))
        assert s <= s_best + 1e-9


def test_scan_curves_rows():
    rows = scan_curves(np.linspace(0, 0.5, 51))
    assert len(rows) == 51
    first = rows[0]
    assert first.epsilon == 0.0
    assert first.i_ab == 0.5
    assert (first.i_honest, first.i_maxent, first.i_minconc, first.i_hsw) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )
    last = rows[-1]
    assert abs(last.i_minconc - 0.5) <= 1e-15
    at_02 = rows[20]
    assert abs(at_02.epsilon - 0.2) <= 1e-12
    assert abs(at_02.i_ab - at_02.i_minconc) <= 1e-9
    for row in rows:
        assert np.all(np.isfinite(row))


def test_nonsymmetric_search_trivial_epsilon_zero():
    report = nonsymmetric_search(0.0, trials=3, seed=1)
    assert report.symmetric_optimum == 0.0
    assert abs(report.best_value) <= 1e-9
    assert report.accepted >= 1


def test_nonsymmetric_search_center_recovers_symmetric_value():
    cfg = OptimizerConfig(restarts=4, max_iterations=300)
    report = nonsymmetric_search(0.25, trials=1, seed=0, optimizer=cfg)
    assert report.accepted == 1
    assert report.best_parameters[4] == -0.5  # the symmetric optimum itself
    assert abs(report.best_value - mi_eve_optimal(0.25)) <= 1e-5


def test_nonsymmetric_search_no_advantage_and_deterministic():
    cfg = OptimizerConfig(restarts=3, max_iterations=250)
    a = nonsymmetric_search(0.25, trials=30, seed=42, optimizer=cfg)
    b = nonsymmetric_search(0.25, trials=30, seed=42, optimizer=cfg)
    assert a == b
    assert a.accepted > 1
    assert a.best_value <= a.symmetric_optimum + 1e-4
    assert a.near_optimum_count >= 1
    with pytest.raises(OutOfRange):
        nonsymmetric_search(0.25, trials=0, seed=1)


def test_nonsymmetric_search_rejects_negative_seed(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw may be made")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(OutOfRange):
        nonsymmetric_search(0.25, trials=2, seed=-1)
