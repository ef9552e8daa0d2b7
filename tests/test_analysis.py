import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bb84eve import (
    CURVES,
    FamilyPoint,
    bell_diagonal_state,
    binary_entropy,
    eve_curve,
    find_threshold,
    key_rate,
    max_entropy_c22,
    mi_alice_bob,
    mi_eve_optimal,
    nonsymmetric_search,
    scan_curves,
    von_neumann_entropy,
)
from bb84eve import analysis, config, curves, linalg, povm, states
from bb84eve.curves import C22_RULES, bisect_sign_change
from bb84eve.errors import NoSignChange, NotPositive, OutOfRange


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


def _decimal_bisect(f, lo, hi):
    """The root of ``f`` in [lo, hi], bisected in decimal arithmetic to a
    bracket of 1e-30, far below the ulp of any root here."""
    negative_lo = f(lo) < 0
    while hi - lo > Decimal("1e-30"):
        mid = (lo + hi) / 2
        if (f(mid) < 0) == negative_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _decimal_roots():
    """Each curve's threshold at 50 digits: three algebraic roots, and hsw's,
    where the Alice-Bob curve (1/2)·ci(1 - ε) hits 1/3, with
    ci(x) = (1/2)[(1-x)log2(1-x) + (1+x)log2(1+x)]."""
    with localcontext() as ctx:
        ctx.prec = 50
        one, two = Decimal(1), Decimal(2)

        def ci(x):
            lo, hi = one - x, one + x
            return (lo * lo.ln() + hi * hi.ln()) / (2 * two.ln())

        return {
            "honest": one - one / two.sqrt(),
            "maxent": one - ((Decimal(5).sqrt() - one) / two).sqrt(),
            "minconc": one / 5,
            "hsw": _decimal_bisect(
                lambda e: ci(one - e) - two / 3, Decimal("0.1"), Decimal("0.2")
            ),
        }


def test_find_threshold_values():
    for curve, exact in _decimal_roots().items():
        res = find_threshold(curve)
        error = abs(Decimal(res.epsilon_star) - exact)
        assert error <= 2 * Decimal(math.ulp(float(exact))), curve
        assert res.converged and res.iterations <= 20, curve
        assert res.bracket_width in (0.0, math.ulp(res.epsilon_star)), curve
        assert res.residual <= 1e-15, curve
        assert res.qber == res.epsilon_star / 2


@pytest.mark.parametrize("curve, exact", [
    ("honest", 1 - 1 / math.sqrt(2)),
    ("minconc", 1 / 5),
    ("maxent", 1 - math.sqrt((math.sqrt(5) - 1) / 2)),
])
def test_threshold_brackets_the_algebraic_root(curve, exact):
    # each reference is itself rounded: honest's is one ulp above the double
    # nearest the true root
    assert abs(find_threshold(curve).epsilon_star - exact) <= 2 * math.ulp(exact)


def test_threshold_ordering():
    stars = {c: find_threshold(c).epsilon_star for c in CURVES}
    assert stars["hsw"] < stars["minconc"] < stars["maxent"] < stars["honest"]


def test_both_thresholds_lie_below_the_bb84_unconditional_one():
    # The abstract's third claim.  One-way BB84 is secure below the QBER Q
    # with 1 - 2h(Q) = 0 (Shor and Preskill, PRL 85, 441, 2000).
    q, *_ = bisect_sign_change(lambda q: 1 - 2 * binary_entropy(q), 0.0, 0.5)
    assert abs(q - 0.11002786443835955) <= 2 * math.ulp(q)
    # the raw-data QBER, 0.1, and the key's, 0.0615
    assert find_threshold("hsw").qber < find_threshold("minconc").qber < q


def test_find_threshold_deterministic_and_validated():
    assert find_threshold("honest") == find_threshold("honest")
    with pytest.raises(ValueError, match="unknown curve"):
        find_threshold("nope")


@pytest.mark.parametrize("curve", CURVES)
def test_find_threshold_is_the_bisection_of_key_rate(curve):
    # the public composition is the reference for the unchecked one
    root = bisect_sign_change(lambda epsilon: key_rate(epsilon, curve), 0.0, 0.5)
    assert find_threshold(curve) == (curve, *root)


@pytest.mark.parametrize("curve", CURVES)
def test_find_threshold_checks_once_per_root(monkeypatch, curve):
    # only the bracket's two ends pass through require_in, not each ε the
    # root finder tries
    calls = []

    def counting(*args):
        calls.append(args[0])
        config.require_in(*args)

    monkeypatch.setattr(curves, "require_in", counting)
    assert find_threshold(curve).iterations >= 5
    assert calls == ["lo", "hi"]


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_sign_change(lambda x: 1.0 + x * x, 0.0, 1.0)


def test_bisect_exact_root_at_either_end():
    def f(x):
        return x - 0.2

    assert bisect_sign_change(f, 0.2, 0.5) == (0.2, 0.0, 0, True, 0.0)
    assert bisect_sign_change(f, 0.0, 0.2) == (0.2, 0.0, 0, True, 0.0)


@pytest.mark.parametrize(
    "lo, hi",
    [(np.nan, 0.5), (-np.inf, 0.5), (0.0, np.inf), (0.5, 0.0)],
    ids=["nan", "minus-inf", "inf", "reversed"],
)
def test_bisect_rejects_bad_bracket(lo, hi):
    with pytest.raises(OutOfRange):
        bisect_sign_change(lambda x: x - 0.2, lo, hi)


def test_bisect_collapses_onto_a_jump():
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    root, residual, iterations, converged, width = bisect_sign_change(step, 0.0, 1.0)
    assert converged
    assert residual == 1.0
    assert iterations <= 64
    assert width == math.ulp(0.29999999999999993)
    assert root in (math.nextafter(0.3, 0.0), 0.3)


def test_bisect_midpoint_does_not_overflow():
    root, residual, _, converged, width = bisect_sign_change(
        lambda x: x - 1.5e308, 1e308, 1.7e308
    )
    assert converged
    assert abs(root - 1.5e308) <= math.ulp(1.5e308)
    assert residual == abs(root - 1.5e308)
    assert width <= math.ulp(1.5e308)


def _jump_at(x0):
    return lambda x: -1.0 if x < x0 else 1.0


def test_bisect_reports_a_bracket_too_wide_to_collapse():
    # a jump leaves the ITP steps no slope to follow, so none beats halving
    f = _jump_at(0.2)
    root, residual, iterations, converged, width = bisect_sign_change(f, -1e300, 1e300)
    assert not converged
    assert iterations == 64
    assert width > 1e280
    assert residual == abs(f(root))


def _plain_bisection(f, lo, hi):
    """``bisect_sign_change``'s loop before the ITP step: plain halving, the
    reference for its roots and its worst case."""
    flo, fhi = f(lo), f(hi)
    for it in range(1, curves.MAX_BISECTIONS + 1):
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, 0.0, it, True, 0.0
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    root, froot = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    return root, abs(froot), it, 0.5 * lo + 0.5 * hi in (lo, hi), hi - lo


@pytest.mark.parametrize("curve", CURVES)
def test_threshold_equals_plain_bisection_bit_for_bit(curve):
    *bracket, _, converged, width = _plain_bisection(
        lambda epsilon: key_rate(epsilon, curve), 0.0, 0.5
    )
    result = find_threshold(curve)
    assert (result.epsilon_star, result.residual) == tuple(bracket)
    assert (result.converged, result.bracket_width) == (converged, width)


@pytest.mark.parametrize("x0", [0.3, 0.2, 1e-3, 0.7, math.nextafter(1.0, 0.0)])
def test_itp_takes_at_most_one_step_beyond_bisection_on_a_jump(x0):
    f = _jump_at(x0)
    root, residual, iterations, converged, width = bisect_sign_change(f, 0.0, 1.0)
    reference = _plain_bisection(f, 0.0, 1.0)
    assert converged and iterations <= reference[2] + 1
    assert (root, residual, converged, width) == tuple(reference[i] for i in (0, 1, 3, 4))


@pytest.mark.parametrize("f", [lambda x: x - 0.2, _jump_at(0.2)], ids=["line", "jump"])
def test_itp_bisects_a_bracket_whose_width_overflows(f):
    # 1.7e308 - (-1.7e308) is inf: there is no ITP step to take
    result = bisect_sign_change(f, -1.7e308, 1.7e308)
    assert result == _plain_bisection(f, -1.7e308, 1.7e308)
    assert result[0] == 0.0 and result[2:4] == (64, False)


def test_max_entropy_c22_matches_closed_form():
    assert max_entropy_c22(0.0) == -1.0
    assert abs(max_entropy_c22(1.0) - 0.0) <= 1e-6
    assert abs(max_entropy_c22(0.3) + 0.49) <= 1e-6
    for eps in np.linspace(0.02, 1.0, 25):
        assert abs(max_entropy_c22(float(eps)) + (1 - eps) ** 2) <= 1e-6


@pytest.mark.parametrize("epsilon", [np.nan, -0.1, 1.1])
def test_max_entropy_c22_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(OutOfRange):
        max_entropy_c22(epsilon)


def test_max_entropy_c22_is_the_argmax():
    eps = 0.4
    best = max_entropy_c22(eps)
    s_best = von_neumann_entropy(bell_diagonal_state(FamilyPoint(eps, best)))
    for c22 in np.linspace(-1, 2 * eps - 1, 50):
        s = von_neumann_entropy(bell_diagonal_state(FamilyPoint(eps, float(c22))))
        assert s <= s_best + 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0, exclude_min=True))
@example(1e-12)
@example(4e-10)  # a c22 segment narrower than 1e-9 is searched too
@example(1.0)
def test_max_entropy_c22_is_the_entropy_argmax_on_a_grid(epsilon):
    """The entropy at max_entropy_c22, from an eigensolve of the real state,
    is at least that of every state on a 65-point c22 grid, each from its
    own eigensolve."""
    best = von_neumann_entropy(
        bell_diagonal_state(FamilyPoint(epsilon, max_entropy_c22(epsilon)))
    )
    grid = np.linspace(-1.0, 2 * epsilon - 1, 65)
    stack = np.stack([bell_diagonal_state(FamilyPoint(epsilon, float(c))) for c in grid])
    assert best >= von_neumann_entropy(stack).max() - 1e-12


def test_max_entropy_c22_makes_no_eigensolve(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no eigensolve may run and no state matrix be built")

    for module, name in (
        (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
        (linalg, "eig_hermitian"), (linalg, "von_neumann_entropy"),
        (analysis, "eig_hermitian"), (analysis, "von_neumann_entropy"),
        (states, "bell_diagonal_state"), (analysis, "bell_diagonal_state"),
    ):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    assert abs(max_entropy_c22(0.3) + 0.49) <= 1e-6


def test_max_entropy_c22_is_the_maxent_rule_to_roundoff():
    """Within 1e-12 of c22 = -(1-ε)² everywhere, also where the segment is
    narrow (ε near 0) and where the root sits near c22 = 0 (ε near 1)."""
    grids = (
        np.linspace(0, 1, 2601), np.logspace(-12, 0, 2000), 1 - np.logspace(-12, -1, 400),
    )
    worst = max(
        abs(max_entropy_c22(eps) + (1 - eps) ** 2)
        for eps in map(float, np.concatenate(grids))
    )
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "grid",
    [[None], [0.1 + 0j], np.array([[0.1, 0.2]]), ["0.1"], [False]],
    ids=["none", "complex", "2-D", "text", "bool"],
)
def test_scan_curves_refuses_an_entry_that_is_not_a_real_number(grid):
    # float() would raise TypeError on the first three and read the last two
    # as 0.1 and 0
    with pytest.raises(OutOfRange):
        scan_curves(grid)


def test_scan_curves_rows():
    rows = scan_curves(np.linspace(0, 0.5, 51))
    assert len(rows) == 51
    minconc = 2 + CURVES.index("minconc")
    first = rows[0]
    assert first == (0.0, 0.5, 0.0, 0.0, 0.0, 0.0)
    last = rows[-1]
    assert abs(last[minconc] - 0.5) <= 1e-15
    at_02 = rows[20]
    assert abs(at_02[0] - 0.2) <= 1e-12
    assert abs(at_02[1] - at_02[minconc]) <= 1e-9
    for row in rows:
        assert len(row) == 2 + len(CURVES)
        assert np.all(np.isfinite(row))


def test_nonsymmetric_search_trivial_epsilon_zero():
    report = nonsymmetric_search(0.0, trials=3, seed=1)
    assert report.symmetric_optimum == 0.0
    assert abs(report.best_value) <= 1e-9
    assert report.accepted >= 1


def test_nonsymmetric_search_center_recovers_symmetric_value():
    report = nonsymmetric_search(0.25, trials=1, seed=0)
    assert report.accepted == 1
    assert report.best_parameters[4] == -0.5  # the symmetric optimum itself
    assert abs(report.best_value - mi_eve_optimal(0.25)) <= 1e-5


def test_nonsymmetric_search_no_advantage_and_deterministic():
    a = nonsymmetric_search(0.25, trials=30, seed=42)
    b = nonsymmetric_search(0.25, trials=30, seed=42)
    assert a == b
    assert a.accepted > 1
    assert a.best_value <= a.symmetric_optimum + 1e-4
    assert a.near_optimum_count >= 1
    with pytest.raises(OutOfRange):
        nonsymmetric_search(0.25, trials=0, seed=1)


def test_nonsymmetric_search_counts_a_draw_the_square_root_rejects_as_rejected(monkeypatch):
    # general_state's eigvalsh and the square root's eigh can read one
    # boundary state's λ_min either side of the cutoff; such a draw is
    # skipped, and the search goes on.  At seed 7 both trials are accepted,
    # and the second is the last, so its rejection shifts no later draw.
    whole = nonsymmetric_search(0.25, 2, 7)
    assert whole.accepted == 2
    real, calls = analysis.conditioned_ancilla_from_state, []

    def rejects_the_second(rho):
        calls.append(rho)
        if len(calls) == 2:
            raise NotPositive("not positive semidefinite", min_eigenvalue=-1.0005e-14)
        return real(rho)

    monkeypatch.setattr(analysis, "conditioned_ancilla_from_state", rejects_the_second)
    report = nonsymmetric_search(0.25, 2, 7)
    assert (report.accepted, len(calls)) == (1, 2)
    assert report.best_parameters[4] == -0.5  # trial 0, the symmetric optimum


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.4])
def test_nonsymmetric_search_batches_are_bounded_and_change_nothing(monkeypatch, epsilon):
    """A search runs its accepted draws' restarts in batches of at most
    ``config.MAX_RESTARTS``, and the report does not depend on that bound."""
    batches = []
    kernel = povm._conjugate_gradient

    def recorder(kets, states, max_iterations):
        batches.append(len(kets))
        return kernel(kets, states, max_iterations)

    monkeypatch.setattr(povm, "_conjugate_gradient", recorder)
    whole = nonsymmetric_search(epsilon, 40, 42)
    assert batches == [4 * whole.accepted]  # one batch
    for limit in (4, 9):  # one draw's restarts per batch, then two
        monkeypatch.setattr(config, "MAX_RESTARTS", limit)
        batches.clear()
        assert nonsymmetric_search(epsilon, 40, 42) == whole
        assert max(batches) <= limit
        assert sum(batches) == 4 * whole.accepted
        assert len(batches) == -(-whole.accepted // (limit // 4))


def test_nonsymmetric_search_rejects_negative_seed(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw may be made")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(OutOfRange):
        nonsymmetric_search(0.25, trials=2, seed=-1)


@pytest.mark.parametrize(
    "trials, seed", [(2.5, 1), (2.0, 1), (True, 1), (2, np.nan), (2, 1.5), (2, np.inf)]
)
def test_nonsymmetric_search_rejects_non_integer_trials_or_seed(monkeypatch, trials, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw may be made")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(OutOfRange):
        nonsymmetric_search(0.25, trials=trials, seed=seed)


def test_nonsymmetric_search_rejects_more_than_max_trials(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw may be made")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(OutOfRange, match=rf"in \[1, {config.MAX_TRIALS}\]"):
        nonsymmetric_search(0.25, trials=config.MAX_TRIALS + 1, seed=1)
