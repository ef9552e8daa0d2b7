"""Measurements: the analytic optimum, its degenerate variants, evaluation,
and an independent numerical optimizer.

The analytic measurement is written in the orthonormal ancilla basis, where
ancilla ket j is √w_j times basis vector j.  In the interior of the feasible
region its four kets are orthonormal (a von Neumann measurement); on the
boundary, vanishing-weight components are dropped and the remaining dyads
still resolve the identity on the ensemble's support.

The optimizer makes no use of that form.  It climbs the accessible
information over all complete sets of d² outcome kets by Riemannian
conjugate gradient, with hybrid Hestenes–Stiefel/Dai–Yuan directions and
a step that backtracks to the peak of a fitted quadratic, and each random
restart stops at a stationary point or at the iteration cap.
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
# A restart stops once its tangent gradient's norm falls to this.
STATIONARY_TOL = 1e-5
# The whole restart batch is held in memory: peak RSS grows about 27 KiB
# per restart (1000 restarts, 100 iterations, ε = 0.3, c22 = −0.5).
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

    ``restarts`` lies in [1, ``MAX_RESTARTS``].  A restart stops once its
    tangent gradient's norm is at most ``STATIONARY_TOL``, or after
    ``max_iterations`` (>= 1) iterations.  The outcome count is not a
    knob: each measurement has d² rank-one outcomes, d the dimension of the
    ensemble's states, and these attain the accessible information
    (Davies, IEEE TIT 24, 596, 1978).
    """

    restarts: int = 8
    max_iterations: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OptimizeResult:
    """The best restart's measurement and value, and how each restart ended.

    ``iterations`` is the batch's count, the largest of
    ``restart_iterations`` (each at most ``max_iterations``).  A restart's
    residual is its final tangent gradient norm; it stopped stationary iff
    that is at most ``STATIONARY_TOL``.
    """

    povm: Povm
    info: float
    restart_values: tuple[float, ...]
    iterations: int
    restart_iterations: tuple[int, ...]
    restart_residuals: tuple[float, ...]


def _random_starts(seed: int, restarts: int, d: int) -> np.ndarray:
    """Per restart, d² kets: the columns of d random unitaries, scaled so
    that their dyads sum to the identity.

    Restart i draws from the i-th child of ``seed``'s sequence, the real
    and imaginary parts of each unitary's Gaussian matrix in turn; the
    phases of R's diagonal are moved into Q, so the unitaries are
    Haar-distributed.
    """
    g = np.empty((restarts, d, d, d), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        z = np.random.default_rng(child).normal(size=(d, 2, d, d))
        g[i] = z[:, 0] + 1j * z[:, 1]
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=2, axis2=3)
    q = q * (phases / np.abs(phases))[:, :, None, :]
    return q.swapaxes(2, 3).reshape(restarts, d * d, d) / np.sqrt(d)


def _retract(kets: np.ndarray) -> np.ndarray:
    """Rescale ket batches so each batch's dyads sum to the identity.

    Cholesky (QR) retraction k -> L^{-1} k, with L·L† the sum of the dyads.
    After a tangent step K + tη the sum is I + t²·(η†η)*, never below I,
    so the factorisation cannot fail; the result differs from the nearest
    complete set of kets (the polar factor) by a rotation of order t².
    """
    chol = np.linalg.cholesky(kets.swapaxes(1, 2) @ kets.conj())
    return kets @ np.linalg.inv(chol).swapaxes(1, 2)


def _batch_info_and_ratios(
    kets: np.ndarray, states_cols: np.ndarray, priors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-restart accessible information, log-likelihood ratios and S·k.

    ``states_cols`` holds the A states of dimension d side by side as a
    (d, A·d) matrix, so one product gives every S_a·k of the batch, laid out
    as (R, K, A, d).  The ratios are laid out as (R, K, A).  Complex dot
    products with a real result are taken as real dot products of the
    real and imaginary parts side by side (``view(float)``).
    """
    r, n, d = kets.shape
    sk = (kets.reshape(r * n, d) @ states_cols).reshape(r, n, -1, d)
    cond = np.einsum("rkx,rkax->rka", kets.view(float), sk.view(float))
    joint = priors * np.maximum(cond, 0.0)
    outcome = joint.sum(axis=2, keepdims=True)  # (R, K, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(joint > 0.0, np.log2(cond) - np.log2(outcome), 0.0)
    return (joint * ratios).sum(axis=(1, 2)), ratios, sk


def _gradient(priors: np.ndarray, ratios: np.ndarray, sk: np.ndarray) -> np.ndarray:
    """Ascent direction Σ_a p_a·ratio_a·S_a·k for every ket of the batch."""
    return np.einsum("rka,rkax->rkx", priors * ratios, sk.view(float)).view(complex)


def _tangent(kets: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project onto the tangent space at K: z − K·herm(K†z) for each (n, d)
    block of z, which holds one or more blocks side by side as (R, n, m·d)."""
    r, _, d = kets.shape
    kz = (kets.conj().swapaxes(1, 2) @ z).reshape(r, d, -1, d)
    herm = (kz + kz.conj().transpose(0, 3, 2, 1)) / 2
    return z - kets @ herm.reshape(r, d, -1)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(x†y) of each pair in the batch: the dot
    product of the real and imaginary parts side by side."""
    return np.einsum("rki,rki->r", x.view(float), y.view(float))


def _backtrack(step: np.ndarray, slope: np.ndarray, shortfall: np.ndarray) -> np.ndarray:
    """The step to try after a rejected trial of length t = ``step``.

    Along t ↦ R(K + tη) the value f has slope 2⟨ξ, η⟩ at 0, ``slope`` being
    ⟨ξ, η⟩.  The quadratic through f(0), that slope and f(t) peaks at
    ⟨ξ, η⟩·t² / ``shortfall``, where ``shortfall`` = f(0) + 2⟨ξ, η⟩·t − f(t)
    is positive on every Armijo rejection, so the quadratic is concave.  The
    peak is clipped to [0.1t, 0.5t] (Nocedal and Wright, Numerical
    Optimization, 2006, §3.5).  A ``shortfall`` <= 0 (no rejection) has no
    peak and gives 0.5t.
    """
    peak = np.divide(
        slope * step**2, shortfall, out=np.full_like(step, np.inf), where=shortfall > 0.0
    )
    return np.clip(peak, 0.1 * step, 0.5 * step)


def _direction(
    new_grad: np.ndarray, moved: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next ascent direction η', its slope ⟨ξ', η'⟩ and ‖ξ'‖².

    ``new_grad`` is the tangent gradient ξ' at the new point, ``moved`` the
    old direction projected onto the new tangent space, P(η), and ``grad``
    the old tangent gradient ξ.  η' is ξ' + β·P(η) with the hybrid
    β = max(0, min(β_HS, β_DY)) of Dai and Yuan (Ann. Oper. Res. 103, 33,
    2001), written for ascent with y = ξ' − P(ξ): β_HS = ⟨ξ', y⟩ / c and
    β_DY = ‖ξ'‖² / c, where c = −⟨P(η), y⟩.  P is an orthogonal
    projection, so ⟨ξ', P(ξ)⟩ = ⟨ξ', ξ⟩ and ⟨P(η), P(ξ)⟩ = ⟨P(η), ξ⟩, and
    ξ itself is never projected.  Unless c > 0 and η' ascends, η' falls
    back to ξ'.
    """
    r = grad.shape[0]
    rows = np.stack((new_grad, moved, grad), axis=1).view(float).reshape(r, 3, -1)
    gram = rows @ rows[:, :2].swapaxes(1, 2)
    new_sq, grad_dir, grad_old = gram[:, 0, 0], gram[:, 1, 0], gram[:, 2, 0]
    curvature = gram[:, 2, 1] - grad_dir
    # for c > 0, min(β_HS, β_DY) = (‖ξ'‖² − max(⟨ξ', ξ⟩, 0)) / c
    numerator = np.maximum(new_sq - np.maximum(grad_old, 0.0), 0.0)
    beta = np.divide(numerator, curvature, out=np.zeros(r), where=curvature > 0.0)
    slope = new_sq + beta * grad_dir
    ascends = slope > 0.0
    beta = np.where(ascends, beta, 0.0)
    return new_grad + beta[:, None, None] * moved, np.where(ascends, slope, new_sq), new_sq


def _conjugate_gradient(
    kets: np.ndarray,
    states: np.ndarray,
    priors: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched Riemannian conjugate-gradient ascent on complete ket sets.

    Each iteration tries one step t along the direction η of every live
    entry and keeps it if it gains at least 1e-4·t·⟨ξ, η⟩ (Armijo), ξ the
    tangent gradient.  A kept step grows t by 1.5; after a rejected one the
    next t is the peak of the quadratic fitted to the trial (``_backtrack``).
    After a kept step the new direction is ξ' + β·(old η projected onto the
    new tangent space), with the hybrid Hestenes–Stiefel/Dai–Yuan β, and
    it falls back to ξ' unless it ascends (``_direction``).  An entry leaves
    the batch once ‖ξ‖ <= ``STATIONARY_TOL`` or after ``max_iterations``.
    Returns the final kets, values, iterations and ‖ξ‖ per entry.
    """
    a, _, d = states.shape
    states_cols = states.transpose(2, 0, 1).reshape(d, a * d)
    values, ratios, sk = _batch_info_and_ratios(kets, states_cols, priors)
    grad = _tangent(kets, _gradient(priors, ratios, sk))
    sq = _inner(grad, grad)
    direction, slope = grad, sq
    step = np.full(kets.shape[0], 0.25)
    out_kets = np.empty_like(kets)
    out_values = np.empty_like(values)
    out_iterations = np.empty(kets.shape[0], dtype=int)
    out_sq = np.empty_like(values)
    live = np.arange(kets.shape[0])
    iterations = 0

    while True:
        done = (sq <= STATIONARY_TOL**2) | (iterations == max_iterations)
        if done.any():
            out_kets[live[done]] = kets[done]
            out_values[live[done]] = values[done]
            out_iterations[live[done]] = iterations
            out_sq[live[done]] = sq[done]
            keep = ~done
            live, kets, values, grad, sq, direction, slope, step = (
                x[keep] for x in (live, kets, values, grad, sq, direction, slope, step)
            )
            if live.size == 0:
                break
        iterations += 1

        trial = _retract(kets + step[:, None, None] * direction)
        trial_values, ratios, sk = _batch_info_and_ratios(trial, states_cols, priors)
        ok = trial_values >= values + 1e-4 * step * slope
        shortfall = values + 2 * step * slope - trial_values
        step = np.where(ok, 1.5 * step, _backtrack(step, slope, shortfall))
        if not ok.any():
            continue

        # Every trial gets a new direction; only the kept ones are used.
        both = np.concatenate((_gradient(priors, ratios, sk), direction), axis=2)
        projected = _tangent(trial, both)
        new_grad, moved = projected[:, :, :d], projected[:, :, d:]
        new_dir, new_slope, new_sq = _direction(new_grad, moved, grad)

        kept = ok[:, None, None]
        kets = np.where(kept, trial, kets)
        grad = np.where(kept, new_grad, grad)
        direction = np.where(kept, new_dir, direction)
        values = np.where(ok, trial_values, values)
        sq = np.where(ok, new_sq, sq)
        slope = np.where(ok, new_slope, slope)

    return out_kets, out_values, out_iterations, np.sqrt(out_sq)


def optimize_povm(
    ensemble: AncillaEnsemble, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizeResult:
    """Numerical search for the information-maximizing measurement.

    The d² outcome kets of a measurement (d read from the ensemble's
    states; enough by Davies, IEEE TIT 24, 596, 1978) are the rows of an
    isometry K, K†K = I, and the accessible information is ascended on that
    manifold by Riemannian conjugate gradient (Absil, Mahony and Sepulchre,
    2008, ch. 8) with the hybrid Hestenes–Stiefel/Dai–Yuan β and an Armijo
    step that, when a trial fails, moves to the peak of the quadratic
    fitted to it (``_conjugate_gradient``).  Restarts start from seeds
    derived from (seed, restart index) and run as one batch, each leaving
    it once stationary (tangent gradient norm at most ``STATIONARY_TOL``,
    Holevo's first-order condition); the best restart wins, with no
    further pass, so the outcome is deterministic and ``iterations`` is
    the batch's count.
    """
    if not 1 <= cfg.restarts <= MAX_RESTARTS:
        raise OutOfRange(f"restarts={cfg.restarts} outside [1, {MAX_RESTARTS}]")
    if cfg.max_iterations < 1:
        raise OutOfRange(f"max_iterations={cfg.max_iterations} must be >= 1")
    if cfg.seed < 0:
        raise OutOfRange(f"seed={cfg.seed} must be >= 0")
    states, priors = ensemble.states, ensemble.priors
    d = states.shape[-1]

    kets, values, iterations, residuals = _conjugate_gradient(
        _random_starts(cfg.seed, cfg.restarts, d), states, priors, cfg.max_iterations
    )
    winner = int(np.argmax(values))
    return OptimizeResult(
        povm=Povm(dyads(kets[winner])),
        info=float(values[winner]),
        restart_values=tuple(float(v) for v in values),
        iterations=int(iterations.max()),
        restart_iterations=tuple(int(n) for n in iterations),
        restart_residuals=tuple(float(r) for r in residuals),
    )
