"""OFUL engine over finite feature sets.

Online ridge regression with a confidence ellipsoid around the estimate.  The
inverse Gram matrix is maintained by rank-one (Sherman-Morrison) updates with
a full re-factorization every ``REFACTOR_EVERY`` updates to bound drift; the
log-determinant rides along the same updates.  Arm selection uses the closed
form value + radius * Mahalanobis norm, which equals the joint argmax over
arms and ellipsoid parameters for linear objectives.

States are immutable: ``ridge_update`` returns a fresh state, so a state can
be handed between execution contexts and never aliases live arrays.  The
engine is policy-free; callers choose delta per phase (the agents here pass
1/sqrt(T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericError

REFACTOR_EVERY = 512


@dataclass(frozen=True)
class UcbConfig:
    sigma: float  # subgaussian noise scale
    S: float  # parameter-norm bound (sqrt(5k) for the sign-robust features)
    delta: float  # confidence level
    lam: float = 1.0  # ridge parameter

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.S <= 0.0:
            raise ValueError("S must be positive")
        # the radius takes log(1/delta) and the inverse Gram starts at I/lambda
        if not 0.0 < self.delta < 1.0 or math.isinf(1.0 / self.delta):
            raise ValueError("delta must lie in (0, 1) and have a finite reciprocal")
        if self.lam <= 0.0 or math.isinf(1.0 / self.lam):
            raise ValueError("lambda must be positive and have a finite reciprocal")


@dataclass(frozen=True, eq=False)
class LinearUcbState:
    """Ridge-regression state V = lam*I + sum x x^T, b = sum y x."""

    dim: int
    lam: float
    gram: np.ndarray
    moment: np.ndarray
    gram_inv: np.ndarray
    theta_hat: np.ndarray
    logdet: float  # log det(gram), maintained incrementally
    count: int
    since_refactor: int


def init_state(dim: int, lam: float = 1.0) -> LinearUcbState:
    if dim < 1:
        raise ValueError("dim must be positive")
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    eye = np.eye(dim)
    return LinearUcbState(
        dim=dim,
        lam=lam,
        gram=lam * eye,
        moment=np.zeros(dim),
        gram_inv=eye / lam,
        theta_hat=np.zeros(dim),
        logdet=dim * math.log(lam),
        count=0,
        since_refactor=0,
    )


def _as_feature(x, dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != dim:
        raise DimensionMismatchError(f"feature has shape {a.shape}, expected ({dim},)")
    if not np.isfinite(a).all():
        raise ValueError("feature contains non-finite entries")
    return a


def ridge_update(state: LinearUcbState, x, y: float) -> LinearUcbState:
    """Absorb one observation (x, y) and return the new state."""
    a = _as_feature(x, state.dim)
    gram = state.gram + np.outer(a, a)
    moment = state.moment + float(y) * a
    since = state.since_refactor + 1
    if since >= REFACTOR_EVERY:
        gram_inv = np.linalg.inv(gram)
        sign, logdet = np.linalg.slogdet(gram)
        if sign <= 0:
            raise NumericError("Gram matrix lost positive definiteness")
        since = 0
    else:
        inv_a = state.gram_inv @ a
        denom = 1.0 + float(a @ inv_a)
        gram_inv = state.gram_inv - np.outer(inv_a, inv_a) / denom
        logdet = state.logdet + math.log(denom)
    gram_inv = 0.5 * (gram_inv + gram_inv.T)  # keep symmetry against roundoff drift
    return LinearUcbState(
        dim=state.dim,
        lam=state.lam,
        gram=gram,
        moment=moment,
        gram_inv=gram_inv,
        theta_hat=gram_inv @ moment,
        logdet=logdet,
        count=state.count + 1,
        since_refactor=since,
    )


def conf_radius(state: LinearUcbState, cfg: UcbConfig) -> float:
    """beta = sigma * sqrt(2 log(det(V)^(1/2) det(lam I)^(-1/2) / delta)) + sqrt(lam) * S."""
    if abs(cfg.lam - state.lam) > 1e-12:
        raise ValueError(f"config lambda {cfg.lam} does not match state lambda {state.lam}")
    radicand = state.logdet - state.dim * math.log(state.lam) + 2.0 * math.log(1.0 / cfg.delta)
    if not math.isfinite(radicand) or radicand < 0.0:
        raise NumericError("determinant ratio collapsed below 1; state is numerically broken")
    return cfg.sigma * math.sqrt(radicand) + math.sqrt(state.lam) * cfg.S


def ucb_select(state: LinearUcbState, cfg: UcbConfig, candidates) -> int:
    """Index maximizing x . theta_hat + beta * |x|_{V^-1}; ties pick the lowest index."""
    feats = np.asarray(candidates, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.shape[0] == 0:
        raise ValueError("candidates must be nonempty")
    if feats.ndim != 2 or feats.shape[1] != state.dim:
        raise DimensionMismatchError(f"candidates have shape {feats.shape}, expected (m, {state.dim})")
    beta = conf_radius(state, cfg)
    quad = ((feats @ state.gram_inv) * feats).sum(axis=1)
    np.maximum(quad, 0.0, out=quad)  # clip Sherman-Morrison roundoff
    scores = feats @ state.theta_hat + beta * np.sqrt(quad)
    return int(np.argmax(scores))
