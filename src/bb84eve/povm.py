"""Measurements: the analytic optimum, its degenerate variants, evaluation,
and an independent numerical optimizer.

The analytic measurement is written in the orthonormal ancilla basis, where
ancilla ket j is √w_j times basis vector j.  In the interior of the feasible
region its four kets are orthonormal (a von Neumann measurement); on the
boundary, vanishing-weight components are dropped and the remaining dyads
still resolve the identity on the ensemble's support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .infotheory import mutual_information
from .linalg import _hermitian_part, dagger, dyads, square_stack
from .states import AncillaEnsemble, FamilyPoint, ZERO_WEIGHT, bell_weights

POSITIVITY_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
# A restart stops after ten consecutive steps that each gain less than this.
STEP_TOLERANCE = 1e-10
# The whole restart batch is held in memory, about 21 KiB per restart.
MAX_RESTARTS = 1000


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: its elements as one (n, d, d) stack."""

    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", square_stack(self.elements))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def total(self) -> np.ndarray:
        return self.elements.sum(axis=0)


def validate_povm(povm: Povm, support: np.ndarray | None = None) -> None:
    """Check Hermiticity and positivity of every element and completeness
    on ``support``.

    ``support`` defaults to the full identity; pass the projector onto a
    subspace for measurements defined only there.  A non-finite or
    non-Hermitian element raises like ``linalg.eig_hermitian`` does.
    """
    w = np.linalg.eigvalsh(_hermitian_part(povm.elements))[:, 0]
    if w.min() < -POSITIVITY_TOL:
        raise ValueError(f"element {w.argmin()} has negative eigenvalue {w.min():.3e}")
    target = np.eye(povm.dim) if support is None else support
    defect = float(np.max(np.abs(povm.total() - target)))
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"elements sum to identity only within {defect:.3e}")


def analytic_povm(point: FamilyPoint) -> Povm:
    """The measurement that attains Eve's accessible information.

    Four rank-one dyads built from kets with components
    (1/2, ±√(w1/(1-c22)), ∓i/2, ∓i√(w3/(1-c22))) along the ancilla axes.
    Components whose weight vanishes (boundary points) are set to zero;
    should the surviving dyads still leave a gap on the ensemble support
    (only possible at the fully degenerate corner c22 = 1), the gap is
    filled with basis projectors.
    """
    w = bell_weights(point)
    alive = w > ZERO_WEIGHT
    one_minus = 1.0 - point.c22
    h1 = 0.5 if alive[0] else 0.0
    h3 = 0.5 if alive[2] else 0.0
    sa = np.sqrt(w[0] / one_minus) if alive[0] and alive[1] else 0.0
    sb = np.sqrt(w[2] / one_minus) if alive[2] and alive[3] else 0.0
    kets = np.array(
        [
            [h1, sa, -1j * h3, -1j * sb],
            [h1, -sa, -1j * h3, 1j * sb],
            [h1, 1j * sb, 1j * h3, -sa],
            [h1, -1j * sb, 1j * h3, sa],
        ],
        dtype=complex,
    )
    elements = dyads(kets)

    support = np.diag(alive.astype(complex))
    defect = support - elements.sum(axis=0)
    if np.max(np.abs(defect)) > ZERO_WEIGHT:
        gap, basis = np.linalg.eigh((defect + dagger(defect)) / 2)
        pad = gap > ZERO_WEIGHT
        pads = gap[pad, None, None] * dyads(basis.T[pad])
        elements = np.concatenate((elements, pads))

    out = Povm(elements[np.einsum("kii->k", elements).real > 1e-14])
    validate_povm(out, support=support)
    return out


def accessible_info(ensemble: AncillaEnsemble, m: Povm) -> float:
    """Mutual information between the ensemble label and the outcome of ``m``."""
    d = ensemble.states.shape[1]
    if m.dim != d:
        raise DimensionMismatch(f"POVM dimension {m.dim} != state dimension {d}")
    cond = np.einsum("aij,kji->ak", ensemble.states, m.elements).real
    joint = ensemble.priors[:, None] * np.clip(cond, 0.0, None)
    return mutual_information(joint)


def conjugate_povm(m: Povm) -> Povm:
    """Entrywise complex conjugate; an involution, valid whenever ``m`` is."""
    return Povm(m.elements.conj())


def convex_combine(m1: Povm, m2: Povm, weight: float) -> Povm:
    """Outcome-wise mixture weight·m1 + (1-weight)·m2."""
    if not 0.0 <= weight <= 1.0:
        raise OutOfRange(f"weight={weight} outside [0, 1]")
    if m1.elements.shape != m2.elements.shape:
        raise DimensionMismatch("POVMs must share outcome count and dimension")
    return Povm(weight * m1.elements + (1 - weight) * m2.elements)


def canonical_optimal_povm(point: FamilyPoint) -> Povm:
    """Equal-weight mix of the analytic measurement and its conjugate.

    All optima along that segment give the same information; the midpoint
    has real elements and is the reproducible representative.
    """
    m = analytic_povm(point)
    return convex_combine(m, conjugate_povm(m), 0.5)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the numerical search; defaults suit four-state ensembles.

    ``restarts`` lies in [1, ``MAX_RESTARTS``].  A restart stops after ten
    consecutive steps that each gained less than ``STEP_TOLERANCE``, or
    after ``max_iterations`` (>= 1) steps.  The outcome count is not a
    knob: each measurement has d² rank-one outcomes, d the dimension of the
    ensemble's states, and these attain the accessible information
    (Davies, IEEE TIT 24, 596, 1978).
    """

    restarts: int = 8
    max_iterations: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OptimizeResult:
    """The best restart's measurement and value, every restart's value, and
    the iterations of the batched ascent (at most ``max_iterations``)."""

    povm: Povm
    info: float
    restart_values: tuple[float, ...]
    iterations: int


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_start(rng: np.random.Generator, d: int) -> np.ndarray:
    """d² kets: the columns of d random unitaries, scaled so that their
    dyads sum to the identity."""
    return np.concatenate([_random_unitary(rng, d).T for _ in range(d)]) / np.sqrt(d)


def _retract(kets: np.ndarray) -> np.ndarray:
    """Rescale ket batches so each batch's dyads sum to the identity.

    Polar retraction k -> G^{-1/2} k, with G the sum of the dyads: the
    nearest complete set of kets.  A Cholesky or QR factor in place of
    G^{-1/2} would also rotate the whole measurement by a unitary.
    """
    grams = kets.swapaxes(1, 2) @ kets.conj()
    lam, vec = np.linalg.eigh(grams)
    scaled = vec / np.sqrt(np.clip(lam, 1e-14, None))[:, None, :]
    inv_sqrt = scaled @ vec.conj().swapaxes(1, 2)
    return kets @ inv_sqrt.swapaxes(1, 2)


def _batch_info_and_ratios(
    kets: np.ndarray, states_cols: np.ndarray, priors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-restart accessible information, log-likelihood ratios and S·k.

    ``states_cols`` holds the A states of dimension d side by side as a
    (d, A·d) matrix, so one product gives every S_a·k of the batch, laid out
    as (R, K, A, d).  The ratios are laid out as (R, K, A).
    """
    r, n, d = kets.shape
    sk = (kets.reshape(r * n, d) @ states_cols).reshape(r, n, -1, d)
    cond = np.clip(np.einsum("rki,rkai->rka", kets.conj(), sk).real, 0.0, None)
    joint = priors * cond
    outcome = joint.sum(axis=2)  # (R, K)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            joint > 0.0,
            np.log2(cond) - np.log2(outcome[:, :, None]),
            0.0,
        )
    values = (joint * ratios).sum(axis=(1, 2))
    return values, ratios, sk


def _gradient(priors: np.ndarray, ratios: np.ndarray, sk: np.ndarray) -> np.ndarray:
    """Ascent direction Σ_a p_a·ratio_a·S_a·k for every ket of the batch."""
    return ((priors * ratios)[:, :, None, :] @ sk)[:, :, 0, :]


def _ascend(
    kets: np.ndarray,
    states: np.ndarray,
    priors: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Monotone projected gradient ascent on a batch of ket sets.

    Step sizes adapt by accept/reject, so each entry's value never
    decreases.  An entry leaves the batch once ten consecutive steps gained
    less than ``STEP_TOLERANCE``.  Returns the final kets and value per
    entry plus the number of iterations spent.
    """
    a, _, d = states.shape
    states_cols = states.transpose(2, 0, 1).reshape(d, a * d)
    values, ratios, sk = _batch_info_and_ratios(kets, states_cols, priors)
    final_kets = np.empty_like(kets)
    final_values = np.empty_like(values)
    live = np.arange(kets.shape[0])
    eta = np.full(kets.shape[0], 0.25)
    stalled = np.zeros(kets.shape[0], dtype=int)
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        trial = _retract(kets + eta[:, None, None] * _gradient(priors, ratios, sk))
        trial_values, trial_ratios, trial_sk = _batch_info_and_ratios(
            trial, states_cols, priors
        )

        improved = trial_values > values + 1e-15
        gain = np.where(improved, trial_values - values, 0.0)
        kets[improved] = trial[improved]
        values[improved] = trial_values[improved]
        ratios[improved] = trial_ratios[improved]
        sk[improved] = trial_sk[improved]
        eta = np.where(improved, np.minimum(eta * 1.5, 64.0), eta * 0.5)

        stalled = np.where(gain < STEP_TOLERANCE, stalled + 1, 0)
        done = stalled >= 10
        if done.any():
            final_kets[live[done]] = kets[done]
            final_values[live[done]] = values[done]
            keep = ~done
            live, kets, values, ratios, sk, eta, stalled = (
                x[keep] for x in (live, kets, values, ratios, sk, eta, stalled)
            )
            if live.size == 0:
                break

    final_kets[live] = kets
    final_values[live] = values
    return final_kets, final_values, iterations


def optimize_povm(
    ensemble: AncillaEnsemble, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizeResult:
    """Numerical search for the information-maximizing measurement.

    Seesaw iteration: (a) from the current measurement, build the outcome
    likelihood table and its log-ratio ranking matrices; (b) push every
    outcome ket along its ranked ascent direction and restore completeness
    by inverse-square-root rescaling.  Each measurement has d² rank-one
    outcomes, d read from the ensemble's states (enough by Davies, IEEE
    TIT 24, 596, 1978).  Restarts start from seeds derived from (seed,
    restart index) and run as one batched ascent, each leaving the batch as
    soon as it stalls (ten consecutive gains below ``STEP_TOLERANCE``); the
    best restart wins, with no further pass, so the outcome is deterministic
    and ``iterations`` is the batch's count.
    """
    if not 1 <= cfg.restarts <= MAX_RESTARTS:
        raise OutOfRange(f"restarts={cfg.restarts} outside [1, {MAX_RESTARTS}]")
    if cfg.max_iterations < 1:
        raise OutOfRange(f"max_iterations={cfg.max_iterations} must be >= 1")
    if cfg.seed < 0:
        raise OutOfRange(f"seed={cfg.seed} must be >= 0")
    states, priors = ensemble.states, ensemble.priors
    d = states.shape[-1]

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = [_random_start(np.random.default_rng(s), d) for s in children]
    kets, values, iterations = _ascend(
        _retract(np.stack(starts)), states, priors, cfg.max_iterations
    )
    winner = int(np.argmax(values))
    return OptimizeResult(
        povm=Povm(dyads(kets[winner])),
        info=float(values[winner]),
        restart_values=tuple(float(v) for v in values),
        iterations=iterations,
    )
