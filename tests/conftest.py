import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_feasible_point(rng, eps_lo=0.0, eps_hi=1.0):
    from bb84eve import FamilyPoint

    eps = rng.uniform(eps_lo, eps_hi)
    c22 = rng.uniform(-1.0, 2 * eps - 1.0)
    return FamilyPoint(float(eps), float(c22))


@st.composite
def physical_general_draws(draw):
    """(ε, hidden coefficients) of a physical general_state: a point of
    [-1, 1]^7 pulled toward the symmetric centre, halving the pull until the
    state is physical (the centre is)."""
    from bb84eve import general_state, optimal_c22
    from bb84eve.errors import NotPositive
    from bb84eve.states import _FREE_NAMES

    epsilon = draw(st.floats(0.0, 1.0))
    target = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7)))
    centre = np.zeros(7)
    centre[_FREE_NAMES.index("c22")] = optimal_c22(epsilon)
    pull = draw(st.floats(0.0, 1.0))
    while True:
        hidden = centre + pull * (target - centre)
        try:
            general_state(epsilon, *hidden)
            return epsilon, hidden
        except NotPositive:
            pull /= 2


def family_edge(epsilon, c22):
    """The ``physical_general_draws`` value of the symmetric state at (ε, c22)."""
    from bb84eve.states import _FREE_NAMES

    hidden = np.zeros(7)
    hidden[_FREE_NAMES.index("c22")] = c22
    return epsilon, hidden


@st.composite
def complete_kets(draw, d=4):
    """Random complete sets of rank-one kets on C^d, as rows: up to 12
    drawn kets and the d axes, each mapped by G^(-1/2), G the sum of their
    dyads, so that the dyads sum to the identity."""
    n = draw(st.integers(0, 12))
    g = draw(arrays(float, (2, n, d), elements=st.floats(-1.0, 1.0)))
    kets = np.concatenate((g[0] + 1j * g[1], np.eye(d)))
    lam, vec = np.linalg.eigh(kets.T @ kets.conj())
    return kets @ ((vec / np.sqrt(lam)) @ vec.conj().T).T


@st.composite
def povms(draw, d=4):
    """The rank-one POVM of a ``complete_kets`` draw."""
    from bb84eve.linalg import dyads
    from bb84eve.povm import Povm

    return Povm(dyads(draw(complete_kets(d))))
