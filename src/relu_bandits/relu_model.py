"""One-layer ReLU reward models and the transforms that linearize them.

The reward of a unit-norm action x under a weight matrix W (k rows, each a
unit-norm neuron w_i) is

    f(x) = sum_i g(w_i . x),    g(z) = z * 1{z >= 0}.

Ties at the kink count as active: 1{0 >= 0} = 1.  Every map in this module
follows that convention.

Freezing the indicators at an estimate We turns f into a linear function of a
lifted feature vector, which is what lets a linear-bandit engine drive the
post-exploration phase.  ``sign_robust_features_batch`` lifts each action to
2k blocks: block i is 1{we_i . x >= 0} * x, exact when every estimated neuron
is close to the true neuron with matching sign; block k+i carries
(1/2 - 1{we_i . x >= 0}) * x and absorbs estimated neurons that converged to
the negation of a true neuron.  Paired with the sign-corrected parameter (a
test-side oracle, since it depends on the truth), the inner product
reproduces f exactly on the arms that ``margin_mask`` keeps at margin nu/2,
provided each neuron is matched within nu/2.

An action is a unit-norm row of d floats and an arm set is an (m, d) array of
them.  ``margin_mask`` and the lift take its (m, k) projection on the
estimate, ``actions @ est.weights.T``, which the caller computes once for both.
The maps here trust that format; callers validate data where it enters
(``_as_unit_rows``).  Arm sets, instances and ERM restarts all draw their
unit rows from ``_unit_rows``.  All types are immutable after construction
and all operations are pure, so they are safe to use from concurrently
running trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


def _as_unit_rows(values, name: str) -> np.ndarray:
    """Caller data as a nonempty, finite 2-D float array of unit rows."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    worst = float(np.abs(np.linalg.norm(a, axis=1) - 1.0).max())
    if worst > NORM_TOL:
        raise ValueError(f"{name} rows must have unit norm within {NORM_TOL:g} (worst deviation {worst:.3e})")
    return a


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Weight matrix of a one-layer ReLU network: k unit-norm rows in R^d."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_unit_rows(self.weights, "weights").copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit, without numpy's reduction overhead on narrow rows.

    numpy adds fewer than 8 entries of a row left to right from +0.0, which
    column adds reproduce; from 8 entries on, defer to numpy.
    """
    n = a.shape[1]
    if n >= 8:
        return a.sum(axis=1)
    out = a[:, 0] + 0.0  # a copy, and +0.0 turns a -0.0 start into numpy's +0.0
    for j in range(1, n):
        out += a[:, j]
    return out


def _unit_rows(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """(m, d) array of i.i.d. uniform unit rows (normalized Gaussians)."""
    raw = gen.standard_normal((m, d))
    norms = np.sqrt(_row_sum(raw * raw))  # what np.linalg.norm(raw, axis=1) computes
    while not norms.all():  # probability-zero guard
        bad = norms == 0.0
        raw[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.sqrt(_row_sum(raw * raw))
    for j in range(d):  # what raw /= norms[:, None] computes, without the broadcast
        raw[:, j] /= norms
    return raw


def eval_f_batch(net: ReluNetwork, actions: np.ndarray) -> np.ndarray:
    """f(x) = sum_i g(w_i . x) for each row x of an (m, d) action matrix; in [0, k] for unit rows."""
    if actions.ndim != 2 or actions.shape[1] != net.d:
        raise ValueError(f"actions have shape {actions.shape}, expected (m, {net.d})")
    p = actions @ net.weights.T
    np.maximum(p, 0.0, out=p)
    return _row_sum(p)


def sign_robust_features_batch(actions: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Sign-robust lift of the rows of (m, d) actions: (m, 2kd) features.

    ``proj`` is the (m, k) projection ``actions @ est.weights.T`` on the estimate.
    Block i of a row is 1{we_i . x >= 0} * x (the indicator-frozen features);
    block k+i is (1/2 - 1{we_i . x >= 0}) * x, the handle through which a
    sign-corrected parameter can undo an estimated neuron that matched the
    negated truth.

    The 2k coefficients [ind, 1/2 - ind] are filled as one contiguous (2k, m)
    array, then each column of the actions scales them: every entry is one
    product, as in the broadcast form.
    """
    if actions.ndim != 2 or proj.ndim != 2 or proj.shape[0] != actions.shape[0]:
        raise ValueError(f"actions {actions.shape} and projection {proj.shape} do not pair up")
    (m, d), k = actions.shape, proj.shape[1]
    coef = np.empty((2 * k, m))
    np.greater_equal(proj.T, 0.0, out=coef[:k])
    np.subtract(0.5, coef[:k], out=coef[k:])
    out = np.empty((m, 2 * k, d))
    for j in range(d):
        np.multiply(coef.T, actions[:, j, None], out=out[:, :, j])
    return out.reshape(m, 2 * k * d)


def margin_mask(proj: np.ndarray, nu: float) -> np.ndarray:
    """Boolean mask of the rows of proj = actions @ est.weights.T with |we_i . x| >= nu for every i."""
    if proj.ndim != 2 or proj.shape[1] < 1:
        raise ValueError(f"projection must be a 2-D (m, k) array with k >= 1, got shape {proj.shape}")
    p = np.abs(proj)
    mask = p[:, 0] >= nu
    for i in range(1, p.shape[1]):
        mask &= p[:, i] >= nu
    return mask


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def exact_argmax_2d(net: ReluNetwork) -> tuple[np.ndarray, float]:
    """Global maximizer of f on the unit circle, exactly (d = 2 only).

    The circle splits into arcs at the angles where some w_i . x = 0.  Inside
    an arc the active set is constant, so f(x) = w . x with w the sum of the
    active neurons; the arc maximum is at w/|w| if that direction lies inside
    the arc, else at an endpoint.  Evaluating f at all critical angles and all
    arc endpoints covers the global maximum.  Ties break toward the smallest
    angle in [0, 2*pi).
    """
    if net.d != 2:
        raise ValueError(f"exact argmax is implemented for d=2 only, got d={net.d}")
    w = net.weights
    neuron_angles = np.arctan2(w[:, 1], w[:, 0])
    bounds = np.unique(np.concatenate([neuron_angles + math.pi / 2, neuron_angles - math.pi / 2]) % _TWO_PI)
    starts = bounds
    ends = np.concatenate([bounds[1:], [bounds[0] + _TWO_PI]])
    candidates = list(bounds)
    for s, e in zip(starts, ends):
        mid = 0.5 * (s + e)
        active = (w @ _unit(mid)) > 0.0  # strict: no boundary crosses an arc interior
        if not active.any():
            continue
        direction = w[active].sum(axis=0)
        if not direction.any():
            continue
        crit = math.atan2(direction[1], direction[0]) % _TWO_PI
        if crit < s:
            crit += _TWO_PI
        if s <= crit <= e:
            candidates.append(crit % _TWO_PI)
    angles = np.unique(np.asarray(candidates))  # sorted: first argmax is the smallest angle
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    values = eval_f_batch(net, points)
    best = int(np.argmax(values))
    return points[best], float(values[best])
