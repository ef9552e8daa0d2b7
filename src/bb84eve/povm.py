"""Measurements: the analytic optimum, its degenerate variants, evaluation
(every tr(S_a·E_k) from one matrix product), and an independent numerical
optimizer.

The analytic measurement is written in the orthonormal ancilla basis, where
ancilla ket j is √w_j times basis vector j.  In the interior of the feasible
region its four kets are orthonormal (a von Neumann measurement); on the
boundary, vanishing-weight components are dropped and the remaining dyads
still resolve the identity on the ensemble's support.

The optimizer makes no use of that form.  It climbs the accessible
information over all complete sets of d² outcome kets by Riemannian
conjugate gradient, with hybrid Hestenes–Stiefel/Dai–Yuan directions and
a step that moves to the peak of a quadratic fitted to each trial, and
each random restart stops at a stationary point or at the iteration cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .config import require_in, require_int
from .errors import DimensionMismatch
from .infotheory import _mutual_information
from .linalg import _hermitian_part, dyads, require_finite, require_psd, square_stack
from .states import NORMALIZATION_SLACK, AncillaEnsemble, FamilyPoint, _bell_weights

# A restart stops once its tangent gradient's norm falls to this.
STATIONARY_TOL = 1e-5
# A trial step t is kept if it gains at least this fraction of t·⟨ξ, η⟩ (Armijo).
_ARMIJO_FRACTION = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the numerical search; defaults suit four-state ensembles.

    ``restarts`` lies in [1, ``config.MAX_RESTARTS``].  A restart stops once
    its tangent gradient's norm is at most ``STATIONARY_TOL``, or after
    ``max_iterations`` (>= 1) iterations.  ``seed`` is >= 0.  Construction
    raises ``OutOfRange`` for any other value.  The outcome count is not a
    knob: each measurement has d² rank-one outcomes, d the dimension of the
    ensemble's states, and these attain the accessible information
    (Davies, IEEE TIT 24, 596, 1978).
    """

    restarts: int = config.DEFAULT_RESTARTS
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        require_int("restarts", self.restarts, 1, config.MAX_RESTARTS)
        require_int("max_iterations", self.max_iterations, 1)
        require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: its elements as one (n, d, d) stack.

    Construction checks that each element is an effect: entries that pass
    ``square_stack`` (else ``ValueError`` or ``DimensionMismatch``),
    Hermitian within ``HERMITICITY_TOL`` (``NotHermitian``) and positive
    (``NotPositive``).  ``elements`` is a read-only copy of the input as
    given, not its Hermitian part, so code that takes a ``Povm`` checks none
    of this again.
    """

    elements: np.ndarray

    def __post_init__(self):
        elements = square_stack(self.elements).copy()
        require_psd(np.linalg.eigvalsh(_hermitian_part(elements)))
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def total(self) -> np.ndarray:
        return self.elements.sum(axis=0)


def validate_povm(povm: Povm, support: np.ndarray | None = None) -> None:
    """Check completeness on ``support``; ``Povm`` itself checks that each
    element is Hermitian and positive.

    ``support`` defaults to the full identity; pass the (dim, dim) projector
    onto a subspace for measurements defined only there.  A support that
    ``require_finite`` refuses raises ``ValueError``, one of another shape
    ``DimensionMismatch``, and an incomplete set ``ValueError``.
    """
    target = np.eye(povm.dim) if support is None else require_finite(support, complex)
    if target.shape != (povm.dim, povm.dim):
        raise DimensionMismatch(f"support shape {target.shape} is not {povm.dim}x{povm.dim}")
    defect = float(np.max(np.abs(povm.total() - target)))
    if not defect <= NORMALIZATION_SLACK:  # NaN fails too
        raise ValueError(f"elements sum to identity only within {defect:.3e}")


def analytic_povm(point: FamilyPoint) -> Povm:
    """The measurement that attains Eve's accessible information.

    Four rank-one dyads built from kets with components
    (1/2, ±√(w1/(1-c22)), ∓i/2, ∓i√(w3/(1-c22))) along the ancilla axes.
    Components whose weight vanishes (boundary points) are set to zero.
    Where w0 vanishes, which on the feasible set is only the corner
    (ε, c22) = (1, 1), every ket vanishes, and the measurement is the
    projectors onto the surviving axes 1 and 3.
    """
    w = _bell_weights(point.epsilon, point.c22)
    alive = [x > 0.0 for x in w]
    one_minus = 1.0 - point.c22
    h3 = 0.5 if alive[2] else 0.0  # w0 vanishes only at the corner, replaced below
    sa = math.sqrt(w[0] / one_minus) if alive[0] and alive[1] else 0.0
    sb = math.sqrt(w[2] / one_minus) if alive[2] and alive[3] else 0.0
    kets = np.array(
        [
            [0.5, sa, -1j * h3, -1j * sb],
            [0.5, -sa, -1j * h3, 1j * sb],
            [0.5, 1j * sb, 1j * h3, -sa],
            [0.5, -1j * sb, 1j * h3, sa],
        ],
        dtype=complex,
    )
    if not alive[0]:
        kets = np.eye(4, dtype=complex)[alive]
    out = Povm(dyads(kets))
    validate_povm(out, support=np.diag(np.array(alive, dtype=complex)))
    return out


def accessible_info(ensemble: AncillaEnsemble, m: Povm) -> float:
    """Mutual information between the uniform ensemble label and the outcome of ``m``.

    Raises ``DimensionMismatch`` unless ``m`` acts on the states' space, and
    ``NotNormalized`` unless the outcome table sums to 1 within
    ``NORMALIZATION_SLACK``, as it does for a complete ``m``.  The table is
    real, 2-D and nonnegative by construction, so nothing else is checked.
    """
    n, d, _ = ensemble.states.shape
    if m.dim != d:
        raise DimensionMismatch(f"POVM dimension {m.dim} != state dimension {d}")
    # tr(S_a·E_k) = Σ_ij S_a[i, j]·E_k[j, i]: S_a row by row against E_k column by column
    cond = ensemble.states.reshape(n, d * d) @ m.elements.transpose(2, 1, 0).reshape(d * d, -1)
    return _mutual_information(np.maximum(cond.real, 0.0) / n)


def conjugate_povm(m: Povm) -> Povm:
    """Entrywise complex conjugate; an involution, valid whenever ``m`` is."""
    return Povm(m.elements.conj())


def convex_combine(m1: Povm, m2: Povm, weight: float) -> Povm:
    """Outcome-wise mixture weight·m1 + (1-weight)·m2."""
    require_in("weight", weight, 0, 1)
    if m1.elements.shape != m2.elements.shape:
        raise DimensionMismatch("POVMs must share outcome count and dimension")
    return Povm(weight * m1.elements + (1 - weight) * m2.elements)


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


@functools.lru_cache(maxsize=1)
def _random_starts(seed: int, restarts: int, d: int) -> np.ndarray:
    """Per restart, d² kets: the columns of d random unitaries, scaled so
    that their dyads sum to the identity.

    Restart i draws from the i-th child of ``seed``'s sequence, the real
    and imaginary parts of each unitary's Gaussian matrix in turn; the
    phases of R's diagonal are moved into Q, so the unitaries are
    Haar-distributed.  The last call's starts are kept, read-only, so
    repeated ``optimize_povm`` calls with one config draw them once; the
    one-entry cache holds no more than that call allocated.
    """
    g = np.empty((restarts, d, d, d), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        z = np.random.default_rng(child).normal(size=(d, 2, d, d))
        g[i] = z[:, 0] + 1j * z[:, 1]
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=2, axis2=3)
    q = q * (phases / np.abs(phases))[:, :, None, :]
    starts = q.swapaxes(2, 3).reshape(restarts, d * d, d) / np.sqrt(d)
    starts.flags.writeable = False
    return starts


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
    kets: np.ndarray, states_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-restart accessible information, log-likelihood ratios and S·k.

    ``states_cols`` holds each restart's A states of dimension d, of weight
    1/A each, side by side as a (d, A·d) matrix, (R, d, A·d) in all.  So
    one stacked product gives every S_a·k, laid out as (R, K, A, d); the
    ratios are laid out as (R, K, A).  Complex dot products with a real
    result are taken as real dot products of the real and imaginary parts
    side by side (``view(float)``).
    """
    r, n, d = kets.shape
    sk = (kets @ states_cols).reshape(r, n, -1, d)
    cond = np.einsum("rkx,rkax->rka", kets.view(float), sk.view(float))
    joint = np.maximum(cond, 0.0) / sk.shape[2]
    outcome = joint.sum(axis=2, keepdims=True)  # (R, K, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(joint > 0.0, np.log2(cond) - np.log2(outcome), 0.0)
    return (joint * ratios).sum(axis=(1, 2)), ratios, sk


def _gradient(ratios: np.ndarray, sk: np.ndarray) -> np.ndarray:
    """Ascent direction Σ_a ratio_a·S_a·k / A, A the state count, for every ket."""
    return np.einsum("rka,rkax->rkx", ratios / ratios.shape[2], sk.view(float)).view(complex)


def _tangent(kets: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project onto the tangent space at K: z − K·herm(K†z) for each (n, d)
    block of z, which holds one or more blocks side by side as (R, n, m·d)."""
    r, _, d = kets.shape
    kz = (kets.conj().swapaxes(1, 2) @ z).reshape(r, d, -1, d)
    herm = (kz + kz.conj().transpose(0, 3, 2, 1)) / 2
    return z - kets @ herm.reshape(r, d, -1)


def _next_step(
    step: np.ndarray, slope: np.ndarray, shortfall: np.ndarray, kept: np.ndarray | bool
) -> np.ndarray:
    """The step to try after a trial of length t = ``step``, kept or not.

    Along t ↦ R(K + tη) the value f has slope 2⟨ξ, η⟩ at 0, ``slope`` being
    ⟨ξ, η⟩.  The quadratic through f(0), that slope and f(t) peaks at
    ⟨ξ, η⟩·t² / ``shortfall``, where ``shortfall`` = f(0) + 2⟨ξ, η⟩·t − f(t)
    is positive on every Armijo rejection, so the quadratic is concave.  The
    peak is clipped to [0.1t, 0.5t] after a rejected trial and to [1.2t, 3t]
    after a kept one (Nocedal and Wright, Numerical Optimization, 2006,
    §3.5).  A ``shortfall`` <= 0 gives a convex fit with no peak: 0.5t after
    a rejection, 3t after a kept trial.
    """
    peak = np.divide(
        slope * step**2, shortfall, out=np.full_like(step, np.inf), where=shortfall > 0.0
    )
    lo = np.where(kept, 1.2, 0.1) * step
    hi = np.where(kept, 3.0, 0.5) * step
    return np.minimum(np.maximum(peak, lo), hi)


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
    rows = np.concatenate((new_grad[:, None], moved[:, None], grad[:, None]), axis=1)
    rows = rows.view(float).reshape(r, 3, -1)
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
    kets: np.ndarray, states: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched Riemannian conjugate-gradient ascent on complete ket sets.

    Each iteration tries one step t along the direction η of every live
    entry and keeps it if it gains at least ``_ARMIJO_FRACTION``·t·⟨ξ, η⟩
    (Armijo), ξ the tangent gradient.  The next t is the peak of the
    quadratic fitted to the trial, clipped to [1.2t, 3t] after a kept one
    and to [0.1t, 0.5t] after a rejected one (``_next_step``).  Only the
    kept trials get a new gradient and direction, written over their
    entries' old ones: ξ' + β·(old η projected onto the new tangent
    space), with the hybrid Hestenes–Stiefel/Dai–Yuan β, falling back to
    ξ' unless it ascends (``_direction``); a rejected entry keeps its
    point, ξ and η.  The first direction is ξ itself: ``_direction`` with
    zero old η and ξ, so β = 0.  An iteration whose trials are all kept
    updates the batch through a basic slice, with no index copies.  An
    entry leaves the batch once ‖ξ‖ <= ``STATIONARY_TOL`` or after
    ``max_iterations``, and its states leave with it.  ``states`` holds
    each entry's own (A, d, d) stack, (R, A, d, d) in all.  The ``kets``
    array passed in may be overwritten.
    Returns the final kets, values, iterations and ‖ξ‖ per entry.
    """
    r, a, d, _ = states.shape
    states_cols = states.transpose(0, 3, 1, 2).reshape(r, d, a * d)
    values, ratios, sk = _batch_info_and_ratios(kets, states_cols)
    grad = _tangent(kets, _gradient(ratios, sk))
    zeros = np.zeros_like(grad)
    direction, slope, sq = _direction(grad, zeros, zeros)
    step = np.full(kets.shape[0], 0.25)
    out_kets = np.empty_like(kets)
    out_values = np.empty_like(values)
    out_iterations = np.empty(kets.shape[0], dtype=int)
    out_sq = np.empty_like(values)
    live = np.arange(kets.shape[0])
    iterations = 0

    while True:
        if iterations == max_iterations or sq.min() <= STATIONARY_TOL**2:
            done = (sq <= STATIONARY_TOL**2) | (iterations == max_iterations)
            out_kets[live[done]] = kets[done]
            out_values[live[done]] = values[done]
            out_iterations[live[done]] = iterations
            out_sq[live[done]] = sq[done]
            keep = ~done
            live, kets, values, grad, sq, direction, slope, step, states_cols = (
                x[keep]
                for x in (live, kets, values, grad, sq, direction, slope, step, states_cols)
            )
            if live.size == 0:
                break
        iterations += 1

        trial = _retract(kets + step[:, None, None] * direction)
        trial_values, ratios, sk = _batch_info_and_ratios(trial, states_cols)
        ok = trial_values >= values + _ARMIJO_FRACTION * step * slope
        step = _next_step(step, slope, values + 2 * step * slope - trial_values, ok)
        at = ok.nonzero()[0]  # the kept entries
        if at.size == ok.size:
            at = slice(None)  # all of them: a basic slice, so no index copies
        elif at.size == 0:
            continue

        kept = trial[at]
        both = np.concatenate((_gradient(ratios[at], sk[at]), direction[at]), axis=2)
        projected = _tangent(kept, both)
        new_grad = projected[:, :, :d]
        direction[at], slope[at], sq[at] = _direction(new_grad, projected[:, :, d:], grad[at])
        kets[at], values[at], grad[at] = kept, trial_values[at], new_grad

    return out_kets, out_values, out_iterations, np.sqrt(out_sq)


def _climb(
    runs: list[tuple[AncillaEnsemble, int]], restarts: int, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``restarts`` restarts of ``_conjugate_gradient`` for each (ensemble,
    seed) in ``runs``, all in one batch, each with its run's states and its
    starts drawn from the run's seed.

    All ensembles must share their state count and dimension.  Returns the
    final kets, values, iterations and ‖ξ‖ per restart, run by run.
    """
    d = runs[0][0].states.shape[-1]
    # a copy: the ascent writes over its kets, never over the cached starts
    kets = np.concatenate([_random_starts(seed, restarts, d) for _, seed in runs])
    states = np.repeat(np.stack([ensemble.states for ensemble, _ in runs]), restarts, axis=0)
    return _conjugate_gradient(kets, states, max_iterations)


def optimize_povm(
    ensemble: AncillaEnsemble, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizeResult:
    """Numerical search for the information-maximizing measurement.

    The d² outcome kets of a measurement (d read from the ensemble's
    states; enough by Davies, IEEE TIT 24, 596, 1978) are the rows of an
    isometry K, K†K = I, and the accessible information is ascended on that
    manifold by Riemannian conjugate gradient (Absil, Mahony and Sepulchre,
    2008, ch. 8) with the hybrid Hestenes–Stiefel/Dai–Yuan β and an Armijo
    step that, after every trial, moves to the peak of the quadratic
    fitted to it (``_conjugate_gradient``).  Restarts start from seeds
    derived from (seed, restart index), drawn once for repeated calls with
    one config, and run as one batch, each leaving it once stationary
    (tangent gradient norm at most ``STATIONARY_TOL``, Holevo's
    first-order condition); the best restart wins, with no further pass,
    so the outcome is deterministic and ``iterations`` is the batch's
    count.
    """
    kets, values, iterations, residuals = _climb(
        [(ensemble, cfg.seed)], cfg.restarts, cfg.max_iterations
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
