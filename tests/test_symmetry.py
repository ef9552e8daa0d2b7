"""Premises of the twirl argument that the symmetric family suffices.

The twirl is T(ρ) = ¼·Σ_k (σ_k⊗σ_k) ρ (σ_k⊗σ_k), k = 0..3 (Kraus, Gisin
and Renner, PRL 95, 080501, 2005).  Each conjugation fixes the measured
table and c22 and flips the sign of some hidden coefficients, so T maps
every state that fits the data to the symmetric state with its c22; and
each leaves Eve's Holevo quantity and her accessible information as they
were.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bb84eve import (
    FamilyPoint, accessible_info, bell_diagonal_state, conditioned_ancilla_from_state,
    general_state, hsw_bound, hsw_optimal, mutual_information, partial_trace,
    von_neumann_entropy,
)
from bb84eve.errors import NotPositive
from bb84eve.linalg import PAULI, dyads
from bb84eve.povm import Povm, validate_povm
from bb84eve.states import _FREE_NAMES, _HIDDEN
from conftest import complete_kets, povms

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

# (re, im) parts of σ_0..σ_3 as integer arrays.
_RE, _IM = PAULI.real.astype(int), PAULI.imag.astype(int)
# σ_k⊗σ_k, k = 0..3, each its own inverse
_FLIPS = [np.kron(s, s) for s in PAULI]


def _mul(a, b):
    """Product of two Gaussian-integer matrices given as (re, im) pairs."""
    return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]


def _kron(a, b):
    """Kronecker product of two Gaussian-integer matrices as (re, im) pairs."""
    return (
        np.kron(a[0], b[0]) - np.kron(a[1], b[1]),
        np.kron(a[0], b[1]) + np.kron(a[1], b[0]),
    )


def _pair(j, k):
    return _kron((_RE[j], _IM[j]), (_RE[k], _IM[k]))


def _sign(k, i, j):
    """s with (σ_k⊗σ_k)(σ_i⊗σ_j)(σ_k⊗σ_k) = s·σ_i⊗σ_j, in integer arithmetic."""
    flip, pair = _pair(k, k), _pair(i, j)
    image = _mul(_mul(flip, pair), flip)
    for s in (1, -1):
        if all(np.array_equal(m, s * p) for m, p in zip(image, pair)):
            return s
    raise AssertionError(f"σ_{k}⊗σ_{k} maps σ_{i}⊗σ_{j} off its own line")


def test_conjugation_sign_table():
    assert np.array_equal(_RE + 1j * _IM, PAULI)  # the integer parts lost nothing
    # every σ_i⊗σ_j goes to ±itself, else _sign raises
    signs = {kij: _sign(*kij) for kij in itertools.product(range(4), repeat=3)}
    negated = {k: {f"c{i}{j}" for i, j in _HIDDEN if signs[k, i, j] < 0} for k in range(4)}
    assert negated == {
        0: set(),
        1: {"c02", "c20", "c12", "c21"},  # σ_x⊗σ_x
        2: {"c12", "c21", "c23", "c32"},  # σ_y⊗σ_y
        3: {"c02", "c20", "c23", "c32"},  # σ_z⊗σ_z
    }
    # the measured table's nonzero entries are c00 = 1 and c11 = c33 =
    # -(1-ε), its others zeros: every conjugation fixes it, and c22
    assert all(signs[k, i, i] == 1 for k, i in itertools.product(range(4), repeat=2))


@st.composite
def physical_draws(draw):
    """(ε, hidden coefficients) of a physical ``general_state``: a point of
    [-1, 1]^7 pulled toward the symmetric state of c22 = ε - 1, the pull
    halved until the state and its conjugates are accepted.  That centre is
    interior but at ε = 0, where eigvalsh of ρ and the square root's eigh
    of a conjugate can read one λ_min either side of EIGENVALUE_CUTOFF, as
    ``nonsymmetric_search``'s two checks can."""
    epsilon = draw(st.floats(0.0, 1.0))
    target = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7)))
    centre = np.zeros(7)
    centre[_FREE_NAMES.index("c22")] = epsilon - 1
    pull = draw(st.floats(0.0, 1.0))
    for _ in range(64):
        hidden = centre + pull * (target - centre)
        try:
            rho = general_state(epsilon, *hidden)
            for f in _FLIPS:
                conditioned_ancilla_from_state(f @ rho @ f)
            return epsilon, hidden
        except NotPositive:
            pull /= 2
    assume(False)  # the centre itself reads below -EIGENVALUE_CUTOFF


@PROPERTY
@given(physical_draws())
def test_twirl_is_the_symmetric_state_with_the_same_c22(draw):
    epsilon, hidden = draw
    rho = general_state(epsilon, *hidden)
    twirled = sum(f @ rho @ f for f in _FLIPS) / 4
    c22 = hidden[_FREE_NAMES.index("c22")]
    assert np.max(np.abs(twirled - general_state(epsilon, c22=c22))) <= 1e-15


@PROPERTY
@given(physical_draws())
def test_holevo_quantity_is_invariant_under_each_conjugation(draw):
    epsilon, hidden = draw
    rho = general_state(epsilon, *hidden)
    chi = hsw_bound(conditioned_ancilla_from_state(rho))
    for f in _FLIPS:
        assert abs(hsw_bound(conditioned_ancilla_from_state(f @ rho @ f)) - chi) <= 1e-12


@PROPERTY
@given(physical_draws(), povms())
def test_accessible_information_is_invariant_under_each_conjugation(draw, m):
    # F = σ_k⊗σ_k equals its transpose, so the canonical purification of
    # FρF is (F ⊗ F) applied to ρ's: F permutes Alice's outcomes up to a
    # phase and acts as F on Eve's side, and {F·E_j·F} then reads every
    # trace tr(S_a·E_j) of ρ's ensemble again, in another row order
    epsilon, hidden = draw
    rho = general_state(epsilon, *hidden)
    info = accessible_info(conditioned_ancilla_from_state(rho), m)
    for f in _FLIPS:
        image = conditioned_ancilla_from_state(f @ rho @ f)
        assert abs(accessible_info(image, Povm(f @ m.elements @ f)) - info) <= 1e-13


def test_bob_conditioned_entropy_is_constant_in_c22_on_the_symmetric_family():
    # ¼·Σ_a S(ρ_B|a), ρ_B|a = 2·tr_A[(P_a ⊗ I)ρ], is the average entropy of
    # Eve's conditioned states; at every feasible c22 it is h(ε/2), the
    # value hsw_optimal gives, so χ = S(ρ) − h(ε/2) depends on c22 only
    # through S(ρ)
    kets = np.array([[1, 0], [0, 1], [1, 1], [1, -1]]) / np.sqrt([1, 1, 2, 2])[:, None]
    alice = [np.kron(np.outer(k, k), np.eye(2)) for k in kets]
    worst = 0.0
    for epsilon in np.linspace(0.0, 1.0, 41):
        for t in np.linspace(0.0, 1.0, 17):
            rho = bell_diagonal_state(FamilyPoint(epsilon, -1 + 2 * epsilon * t))
            bob = [2 * partial_trace(p @ rho, (2, 2), keep=1) for p in alice]
            average = sum(von_neumann_entropy(b) for b in bob) / 4
            worst = max(worst, abs(average - hsw_optimal(epsilon)))
    assert worst <= 1e-14


@st.composite
def uniform_row_tables(draw, rows):
    """A joint table with ``rows`` rows, each summing to 1/rows, over one to
    four columns; entries may be zero."""
    w = draw(arrays(float, (rows, draw(st.integers(1, 4))), elements=st.floats(0.0, 1.0)))
    assume((w.sum(axis=1) > 0).all())
    return w / w.sum(axis=1, keepdims=True) / rows


@PROPERTY
@given(st.data(), st.integers(1, 4), st.floats(0.0, 1.0))
def test_a_held_label_carries_the_mixture_of_informations(data, rows, t):
    # the concavity step's label lemma: with the mixing label in Eve's
    # hands, her outcome is (label, j); Alice's marginal is the same uniform
    # one under either label, so the label itself tells her nothing and the
    # information is the average of the two
    p1, p2 = data.draw(uniform_row_tables(rows)), data.draw(uniform_row_tables(rows))
    joint = np.hstack((t * p1, (1 - t) * p2))
    mixed = t * mutual_information(p1) + (1 - t) * mutual_information(p2)
    assert abs(mutual_information(joint) - mixed) <= 1e-12


@st.composite
def invertible_pairs(draw):
    """Two ``general_state`` draws at one ε in [0.01, 1], each a point of
    [-1, 1]^7 pulled toward the symmetric state of c22 = ε - 1, whose
    λ_min is ε/4, the pull halved until λ_min >= 1e-3."""
    epsilon = draw(st.floats(0.01, 1.0))
    centre = np.zeros(7)
    centre[_FREE_NAMES.index("c22")] = epsilon - 1
    pair = []
    for _ in range(2):
        target = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7)))
        pull = draw(st.floats(0.0, 1.0))
        while True:
            try:
                rho = general_state(epsilon, *(centre + pull * (target - centre)))
                if np.linalg.eigvalsh(rho)[0] >= 1e-3:
                    break
            except NotPositive:
                pass
            pull /= 2
        pair.append(rho)
    return pair


def _power(rho, p):
    """ρ^p of a positive definite ρ."""
    lam, vec = np.linalg.eigh(rho)
    return (vec * lam**p) @ vec.conj().T


@PROPERTY
@given(invertible_pairs(), st.floats(0.1, 0.9), complete_kets(), complete_kets())
def test_measurements_on_two_states_join_into_one_on_their_mixture(pair, t, f1, f2):
    # the concavity step's join: through the canonical purifications, the
    # kets √w·(ρ^(-1/2))*·(√ρ_i)*·f, f a row of F_i, (w, ρ_i) = (t, ρ1) or
    # (1 - t, ρ2), measure Eve's side of ρ = tρ1 + (1-t)ρ2 with outcome
    # (i, f) at weight w times F_i's outcome f on ρ_i: the label lemma then
    # gives the mixture of the two informations
    rho1, rho2 = pair
    rho = t * rho1 + (1 - t) * rho2
    inv_root = _power(rho, -0.5)
    joined = np.concatenate([
        np.sqrt(w) * f @ (inv_root @ _power(r, 0.5)).conj().T
        for w, r, f in ((t, rho1, f1), (1 - t, rho2, f2))
    ])
    m = Povm(dyads(joined))
    validate_povm(m)
    info1 = accessible_info(conditioned_ancilla_from_state(rho1), Povm(dyads(f1)))
    info2 = accessible_info(conditioned_ancilla_from_state(rho2), Povm(dyads(f2)))
    got = accessible_info(conditioned_ancilla_from_state(rho), m)
    assert abs(got - (t * info1 + (1 - t) * info2)) <= 1e-12
