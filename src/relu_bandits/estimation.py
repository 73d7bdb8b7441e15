"""Fitting the ReLU reward model from samples (X, y), and its closed-form theory.

``fit_erm`` minimizes the empirical squared loss with multi-restart projected
gradient descent (rows re-normalized to the unit sphere after every step);
``match_neurons`` scores an estimate against the truth with the sign-aware
bijection.  The ``*_bound`` evaluators compute the guarantees exactly as
written: the loss-deviation radius ``zeta_bound``, the parameter-error
radius ``alpha_bound``, the matching radius ``h_bound``, and the exploration
length ``t0_schedule``.  They are diagnostics, except that OFU-ReLU+ takes
its exploration windows from ``t0_schedule`` when no ``practical_override``
is set, though the schedule is astronomically conservative at desk scale.
Each returns a finite float or raises a ValueError naming itself and its
arguments (``_finite``); an out-of-range argument raises the range rule's.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import _require
from .relu_model import ReluNetwork, _as_unit_rows, _unit_rows


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 10
    max_iters: int = 600
    step_size: float = 0.2
    tol: float = 1e-9  # projected-step stop: a step moving the rows by at most step_size * tol
    seed: int = 0

    def __post_init__(self):
        _require("restarts", self.restarts, 1, integer=True)
        _require("max_iters", self.max_iters, 1, integer=True)
        _require("seed", self.seed, 0, integer=True)  # numpy's generators take no negative seed
        _require("step_size", self.step_size, 0.0, strict=True)
        if not self.tol > 0.0:  # unbounded: a huge tol freezes every restart at once; NaN fails
            raise ValueError(f"tol must be a number in (0, inf], got {self.tol!r}")


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


def _as_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Fit data as an (n, d) array of unit rows and n float labels."""
    X = _as_unit_rows(X, "X")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    return X, y


def fit_erm(X, y, k: int, cfg: FitConfig, init: ReluNetwork | None = None) -> ReluNetwork:
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
    (``np.mean``) wins.  A label that is not finite raises ValueError; a fit
    whose every final loss is non-finite raises RuntimeError.  Given ``init``,
    a (k, d) estimate, the fit is one restart from its rows (the warm path),
    with the same steps, stop rule and redraws; the generator then makes no
    initial draws.  Another shape of ``init`` raises ValueError.
    """
    _require("k", k, 1, integer=True)
    X, y = _as_data(X, y)
    if not np.isfinite(y).all():
        raise ValueError("labels must be finite")
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    if init is None:
        W = np.stack([_unit_rows(rng, k, d) for _ in range(cfg.restarts)])
    elif init.weights.shape == (k, d):
        W = init.weights[None].copy()  # one restart, from the given rows
    else:
        raise ValueError(f"init has shape {init.weights.shape}, expected ({k}, {d})")
    live, w = np.arange(len(W)), W.copy()  # the restarts still descending, and their rows
    for _ in range(cfg.max_iters):
        p = w @ X.T  # (L, k, n); the stacked matmul makes each restart's own BLAS call
        resid = np.maximum(p, 0.0).sum(axis=1)
        resid -= y
        grad = ((p > 0.0) * resid[:, None, :]) @ X  # (L, k, d)
        grad *= 2.0 / n
        grad *= cfg.step_size
        step = w - grad
        norms = np.sqrt((step * step).sum(axis=2, keepdims=True))  # what np.linalg.norm computes
        if norms.min() < 1e-12:  # a row collapsed onto the origin; restart it in place
            small = norms[..., 0] < 1e-12
            step[small] = _unit_rows(rng, int(small.sum()), d)
            norms = np.sqrt((step * step).sum(axis=2, keepdims=True))
        step /= norms
        moved = step - w
        moved *= moved
        done = np.sqrt(moved.reshape(len(live), k * d).sum(axis=1)) <= cfg.step_size * cfg.tol
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
        raise RuntimeError("all restarts produced non-finite losses")
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
        raise ValueError(
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


def _finite(bound):
    """The evaluators' one failure rule: return a finite float or raise a ValueError naming the call.

    An OverflowError or ZeroDivisionError inside the formula, or a result that
    is not finite, is "out of floating-point range"; a formula raises a bare
    ArithmeticError, whose message is the reason, where the bound itself fails
    at these inputs.  ValueError, the range rule's, passes through unchanged.
    """
    @functools.wraps(bound)
    def evaluate(*args, **kwargs):
        reason = "out of floating-point range"
        try:
            value = bound(*args, **kwargs)
            if math.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        except ArithmeticError as exc:
            reason = str(exc)
        given = ", ".join(f"{key}={v}" for key, v in inspect.signature(bound).bind(*args, **kwargs).arguments.items())
        raise ValueError(f"{bound.__name__}({given}) is {reason}")
    return evaluate


@_finite
def zeta_bound(n: int, k: int, d: int, sigma: float, delta: float) -> float:
    """Loss-deviation radius after n uniform exploration samples.

    zeta = sqrt((4096 k^2 max(k,sigma)^2 / n)
                * (d k max(1, log(1 + sqrt(n/(d k)))) + log(4/delta))).

    delta is nominally a confidence in (0, 1); values >= 1 are accepted so the
    formula can be probed at diagnostic inputs (log(4/delta) needs only a
    positive, finite delta).  The CLI enforces (0, 1) for user inputs.
    """
    _require("k", k, 1, integer=True)
    _require("d", d, 1, integer=True)
    _require("sigma", sigma, 0.0)
    _require("delta", delta, 0.0, strict=True)
    _require("n", n, 1)
    ks = max(float(k), sigma)
    lead = 4096.0 * k**2 * ks**2 / n
    bracket = d * k * max(1.0, math.log(1.0 + math.sqrt(n / (d * k)))) + math.log(4.0 / delta)
    if bracket < 0.0:
        raise ArithmeticError("undefined: the radicand is negative")
    return math.sqrt(lead * bracket)


@_finite
def alpha_bound(zeta: float, k: int, d: int) -> float:
    """Parameter-error radius implied by a loss deviation of zeta.

    alpha = 727 * pi^(-1/4) * k * d^(1/4) * (2 zeta)^(1/4); linear in k.
    """
    _require("k", k, 1, integer=True)
    _require("d", d, 1, integer=True)
    _require("zeta", zeta, 0.0)
    return 727.0 * math.pi ** (-0.25) * k * d**0.25 * (2.0 * zeta) ** 0.25


def _log_sphere_area(n_minus_1: int) -> float:
    """log |S^(n-1)| = log(2 pi^(n/2) / Gamma(n/2)).

    pi^(n/2) and Gamma(n/2) overflow from n of about 340, and the area itself
    underflows from n of about 430; its logarithm stays moderate.
    """
    n = n_minus_1 + 1
    return math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)


@_finite
def h_bound(eta: float, eps: float, k: int, d: int) -> float:
    """Matching radius below which a loss within eta forces a close bijection.

    h(eta, eps) = (k eps^3 |S^(d-3)| / 2)
                  / (eps^2 (1 - d eps^2 / 2) |S^(d-2)| / 8 - eta - 6 k d eps^3 |S^(d-2)|).

    Only d >= 3 is supported: |S^(d-3)| has no Gamma-convention meaning at
    d = 2.  A nonpositive denominator means the bound is vacuous at these
    inputs (eps too large or eta too close to the leading term), which
    raises a ValueError saying so.
    Numerator and denominator are divided through by |S^(d-2)|, so neither
    the value nor the sign depends on an area that underflows at large d.
    """
    _require("k", k, 1, integer=True)
    _require("d", d, 3, integer=True)
    _require("eps", eps, 0.0, strict=True)
    _require("eta", eta, 0.0)
    log_high = _log_sphere_area(d - 2)
    num = k * eps**3 * math.exp(_log_sphere_area(d - 3) - log_high) / 2.0
    den = eps**2 * (1.0 - d * eps**2 / 2.0) / 8.0 - 6.0 * k * d * eps**3
    if eta > 0.0 and den > 0.0:
        share = math.log(eta) - log_high  # log(eta / |S^(d-2)|), which overflows where the area underflows
        den = den - math.exp(share) if share < math.log(den) else 0.0
    if den <= 0.0:
        raise ArithmeticError("vacuous: the denominator is nonpositive")
    return num / den


@_finite
def t0_schedule(nu: float, k: int, d: int, sigma: float, T: float, *, C1: float, C2: float) -> float:
    """Theoretical exploration length sufficient for a matched error nu/2 at horizon T.

    t1(nu) = C1 k^10 d^2 max(k,sigma)^2 / nu^8 * B,
    t2     = C2 k^10 d^6 max(k,sigma)^2 * B,
    B      = d k max(log(d max(k,sigma)), log log T) + log(64 T),
    and the schedule is max(t1, t2): monotone nonincreasing in nu, constant
    once t2 dominates.  Requires T >= e so log log T is defined and
    nonnegative.
    """
    _require("k", k, 1, integer=True)
    _require("d", d, 1, integer=True)
    _require("sigma", sigma, 0.0)
    _require("C1", C1, 0.0, strict=True)
    _require("C2", C2, 0.0, strict=True)
    _require("nu", nu, 0.0, strict=True)
    _require("T", T, math.e)  # log log T is defined and nonnegative from e
    ks = max(float(k), sigma)
    bracket = d * k * max(math.log(d * ks), math.log(math.log(T))) + math.log(64.0 * T)
    t1 = C1 * k**10 * d**2 * ks**2 / nu**8 * bracket
    t2 = C2 * k**10 * d**6 * ks**2 * bracket
    return max(t1, t2)
