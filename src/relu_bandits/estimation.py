"""Fitting the ReLU reward model from samples (X, y), and its closed-form theory.

``fit_erm`` minimizes the empirical squared loss with multi-restart projected
gradient descent (rows re-normalized to the unit sphere after every step);
``match_neurons`` scores an estimate against the truth with the sign-aware
bijection.  The ``*_bound`` evaluators compute the guarantees exactly as
written: the loss-deviation radius ``zeta_bound``, the parameter-error
radius ``alpha_bound``, the matching radius ``h_bound``, and the exploration
length ``t0_schedule``.  They are diagnostics: the agents take their
exploration lengths from configuration, not from these formulas, because the
theoretical schedule is astronomically conservative at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundVacuousError, DimensionMismatchError, FitError, NumericError, UnsupportedDimensionError
from .relu_model import ReluNetwork, _as_unit_rows, _unit_rows


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 10
    max_iters: int = 600
    step_size: float = 0.2
    tol: float = 1e-9  # projected-step stop: a step moving the rows by at most step_size * tol
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if self.step_size <= 0.0 or self.tol <= 0.0:
            raise ValueError("step_size and tol must be positive")


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Sign-aware bijection from true neurons to estimated neurons.

    ``perm[i]`` is the estimate index assigned to true neuron i, ``signs[i]``
    in {+1, -1} the orientation that attains ``errors[i]``, which equals
    |signs[i] * est[perm[i]] - truth[i]|.
    """

    perm: np.ndarray
    signs: np.ndarray
    errors: np.ndarray
    max_error: float


@dataclass(frozen=True)
class BoundParams:
    """Shared inputs of the bound evaluators.

    delta is nominally a confidence in (0, 1); values >= 1 are accepted so the
    formulas can be probed at diagnostic inputs (only positivity is required
    for log(4/delta) to exist).  The CLI enforces (0, 1) for user inputs.
    """

    k: int
    d: int
    sigma: float
    delta: float
    T: float
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise ValueError("k and d must be positive integers")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.C1 <= 0.0 or self.C2 <= 0.0:
            raise ValueError("C1 and C2 must be positive")


def _as_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Fit data as an (n, d) array of unit rows and n float labels."""
    X = _as_unit_rows(X, "X")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    return X, y


def fit_erm(X, y, k: int, cfg: FitConfig) -> ReluNetwork:
    """Best-of-restarts projected gradient descent on the loss over rows X, labels y.

    The restarts descend together as one (R, k, d) stack, their initial rows
    drawn restart by restart from one generator seeded with ``cfg.seed``.
    Each step renormalizes rows to the unit sphere; the ReLU subgradient at
    the kink is 0 (g'(z) = 1{z > 0}).  A row that collapses onto the origin
    is redrawn in place, from the same generator after all initial draws.
    A restart freezes at its pre-step rows once its projected step, redraws
    included, would move them by at most ``cfg.step_size * cfg.tol``
    (Frobenius norm): the gradient mapping, which unlike the raw gradient
    vanishes at a minimum on the sphere.  Otherwise each restart does the
    arithmetic of a lone descent, so the result equals running them one after
    another.  The earliest restart with the smallest finite final loss
    (``np.mean``) wins.  Raises FitError if a label is not finite, which
    makes every loss non-finite, or if every final loss is non-finite.
    """
    if k < 1:
        raise ValueError("k must be positive")
    X, y = _as_data(X, y)
    if not np.isfinite(y).all():
        raise FitError("labels must be finite")
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    W = np.stack([_unit_rows(rng, k, d) for _ in range(cfg.restarts)])
    live, w = np.arange(cfg.restarts), W.copy()  # the restarts still descending, and their rows
    for _ in range(cfg.max_iters):
        p = w @ X.T  # (L, k, n); the stacked matmul makes each restart's own BLAS call
        resid = np.where(p >= 0.0, p, 0.0).sum(axis=1) - y
        grad = (2.0 / n) * (((p > 0.0) * resid[:, None, :]) @ X)  # (L, k, d)
        step = w - cfg.step_size * grad
        norms = np.sqrt((step * step).sum(axis=2, keepdims=True))  # what np.linalg.norm computes
        if norms.min() < 1e-12:  # a row collapsed onto the origin; restart it in place
            small = norms[..., 0] < 1e-12
            step[small] = _unit_rows(rng, int(small.sum()), d)
            norms = np.sqrt((step * step).sum(axis=2, keepdims=True))
        step /= norms
        moved = step - w
        done = np.sqrt((moved * moved).reshape(len(live), k * d).sum(axis=1)) <= cfg.step_size * cfg.tol
        if done.any():
            W[live[done]] = w[done]
            live, step = live[~done], step[~done]
        w = step
        if not live.size:
            break
    W[live] = w
    p = W @ X.T
    resid = np.where(p >= 0.0, p, 0.0).sum(axis=1) - y
    loss = np.mean(resid * resid, axis=1)
    loss[~np.isfinite(loss)] = np.inf
    if np.isinf(loss).all():
        raise FitError("all restarts produced non-finite losses")
    return ReluNetwork(W[int(np.argmin(loss))])


def match_neurons(est: ReluNetwork, truth: ReluNetwork) -> MatchResult:
    """Minimum-cost sign-aware assignment of estimated to true neurons.

    Cost of pairing true neuron i with estimate j is
    min(|e_j - t_i|^2, |e_j + t_i|^2); the optimal bijection comes from the
    Hungarian method, with each pair's sign chosen to attain its minimum
    (ties prefer +1).
    """
    from scipy.optimize import linear_sum_assignment  # deferred: only estimate matches, and scipy is slow to import
    if est.weights.shape != truth.weights.shape:
        raise DimensionMismatchError(
            f"estimate {est.weights.shape} and truth {truth.weights.shape} disagree"
        )
    diff = truth.weights[:, None, :] - est.weights[None, :, :]  # (i, j, d)
    summ = truth.weights[:, None, :] + est.weights[None, :, :]
    d_minus = np.linalg.norm(diff, axis=2)
    d_plus = np.linalg.norm(summ, axis=2)
    cost = np.minimum(d_minus, d_plus) ** 2
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(truth.k, dtype=np.int64)
    perm[rows] = cols
    pick_minus = d_minus[np.arange(truth.k), perm] <= d_plus[np.arange(truth.k), perm]
    signs = np.where(pick_minus, 1, -1).astype(np.int64)
    errors = np.where(pick_minus, d_minus[np.arange(truth.k), perm], d_plus[np.arange(truth.k), perm])
    return MatchResult(perm=perm, signs=signs, errors=errors, max_error=float(errors.max()))


def zeta_bound(n: int, p: BoundParams) -> float:
    """Loss-deviation radius after n uniform exploration samples.

    zeta = sqrt((4096 k^2 max(k,sigma)^2 / n)
                * (d k max(1, log(1 + sqrt(n/(d k)))) + log(4/delta))).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    ks = max(float(p.k), p.sigma)
    lead = 4096.0 * p.k**2 * ks**2 / n
    bracket = p.d * p.k * max(1.0, math.log(1.0 + math.sqrt(n / (p.d * p.k)))) + math.log(4.0 / p.delta)
    if bracket < 0.0:
        raise NumericError("radicand is negative at these inputs")
    return math.sqrt(lead * bracket)


def alpha_bound(zeta: float, p: BoundParams) -> float:
    """Parameter-error radius implied by a loss deviation of zeta.

    alpha = 727 * pi^(-1/4) * k * d^(1/4) * (2 zeta)^(1/4); linear in k.
    """
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    return 727.0 * math.pi ** (-0.25) * p.k * p.d**0.25 * (2.0 * zeta) ** 0.25


def _log_sphere_area(n_minus_1: int) -> float:
    """log |S^(n-1)| = log(2 pi^(n/2) / Gamma(n/2)).

    pi^(n/2) and Gamma(n/2) overflow from n of about 340, and the area itself
    underflows from n of about 430; its logarithm stays moderate.
    """
    n = n_minus_1 + 1
    return math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)


def h_bound(eta: float, eps: float, k: int, d: int) -> float:
    """Matching radius below which a loss within eta forces a close bijection.

    h(eta, eps) = (k eps^3 |S^(d-3)| / 2)
                  / (eps^2 (1 - d eps^2 / 2) |S^(d-2)| / 8 - eta - 6 k d eps^3 |S^(d-2)|).

    Only d >= 3 is supported: |S^(d-3)| has no Gamma-convention meaning at
    d = 2.  A nonpositive denominator means the bound is vacuous at these
    inputs (eps too large or eta too close to the leading term) and raises.
    Numerator and denominator are divided through by |S^(d-2)|, so neither
    the value nor the sign depends on an area that underflows at large d.
    """
    if d < 3:
        raise UnsupportedDimensionError(f"h is defined for d >= 3 only, got d={d}")
    if k < 1:
        raise ValueError("k must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    log_high = _log_sphere_area(d - 2)
    num = k * eps**3 * math.exp(_log_sphere_area(d - 3) - log_high) / 2.0
    den = eps**2 * (1.0 - d * eps**2 / 2.0) / 8.0 - 6.0 * k * d * eps**3
    if eta > 0.0 and den > 0.0:
        share = math.log(eta) - log_high  # log(eta / |S^(d-2)|), which overflows where the area underflows
        den = den - math.exp(share) if share < math.log(den) else 0.0
    if den <= 0.0:
        raise BoundVacuousError(f"the denominator is nonpositive at eta={eta:g}, eps={eps:g}; the bound is vacuous here")
    return num / den


def t0_schedule(nu: float, p: BoundParams) -> float:
    """Theoretical exploration length sufficient for a matched error nu/2.

    t1(nu) = C1 k^10 d^2 max(k,sigma)^2 / nu^8 * B,
    t2     = C2 k^10 d^6 max(k,sigma)^2 * B,
    B      = d k max(log(d max(k,sigma)), log log T) + log(64 T),
    and the schedule is max(t1, t2): monotone nonincreasing in nu, constant
    once t2 dominates.  Requires T >= e so log log T is defined and
    nonnegative.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if p.T < math.e:
        raise ValueError("T must be at least e for log log T to be defined")
    ks = max(float(p.k), p.sigma)
    bracket = p.d * p.k * max(math.log(p.d * ks), math.log(math.log(p.T))) + math.log(64.0 * p.T)
    t1 = p.C1 * p.k**10 * p.d**2 * ks**2 / nu**8 * bracket
    t2 = p.C2 * p.k**10 * p.d**6 * ks**2 * bracket
    return max(t1, t2)
