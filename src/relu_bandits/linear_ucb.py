"""OFUL engine over finite feature sets.

Online ridge regression with a confidence ellipsoid around the estimate.  The
inverse Gram matrix is maintained by rank-one (Sherman-Morrison) updates with
a full re-factorization every ``REFACTOR_EVERY`` updates to bound drift; the
log-determinant rides along the same updates.  Arm selection uses the closed
form value + radius * Mahalanobis norm, which equals the joint argmax over
arms and ellipsoid parameters for linear objectives.

A state has one owner, which updates it in place with ``ridge_update``; an
owner that must start over (an agent refitting its features) builds a fresh
state and absorbs its whole replay as one block of rows, which adds the
block's Gram and moment sums and re-factorizes once: OFUL needs only V, b and
log det V.  The engine is policy-free; callers pass their UcbConfig (the
agents pass ``cfg.ucb``, whose delta the CLI defaults to 1/sqrt(T)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _require
from .relu_model import _row_sum

REFACTOR_EVERY = 512
LAMBDA_MIN = math.sqrt(np.finfo(float).eps)  # ~1.49e-8; below it the Sherman-Morrison updates lose the ridge solution
DELTA_MIN = 1.0 / sys.float_info.max  # ~5.56e-309, an open floor: the radius takes log(1/delta), and 1/DELTA_MIN is inf


@dataclass(frozen=True)
class UcbConfig:
    sigma: float  # subgaussian noise scale
    S: float  # parameter-norm bound (sqrt(5k) for the sign-robust features)
    delta: float  # confidence level
    lam: float = 1.0  # ridge parameter

    def __post_init__(self):
        _require("sigma", self.sigma, 0.0)
        _require("S", self.S, 0.0, strict=True)
        _require("delta", self.delta, DELTA_MIN, 1.0, strict=True)
        _require("lambda", self.lam, LAMBDA_MIN)


class LinearUcbState:
    """Ridge-regression state V = lam*I + sum x x^T, b = sum y x."""

    def __init__(self, dim: int, lam: float = 1.0):
        _require("dim", dim, 1, integer=True)
        _require("lambda", lam, LAMBDA_MIN)
        eye = np.eye(dim)
        self.dim = dim
        self.lam = lam
        self.gram = lam * eye
        self.moment = np.zeros(dim)
        self.gram_inv = eye / lam
        self.logdet = dim * math.log(lam)  # log det(gram), maintained incrementally
        self.count = 0


def _as_features(x, dim: int) -> np.ndarray:
    """One feature row, or an (n, dim) block of rows, as a finite float array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != dim:
        raise ValueError(f"feature has shape {a.shape}, expected ({dim},) or (n, {dim})")
    if not np.isfinite(a).all():
        raise ValueError("feature contains non-finite entries")
    return a


def ridge_update(state: LinearUcbState, x, y) -> None:
    """Absorb one observation (x, y), or a block of them, into ``state`` in place.

    A row updates the inverse by Sherman-Morrison.  A block is an (n, dim)
    array of rows with n rewards: it adds Phi^T Phi and Phi^T y at once and
    re-factorizes; an empty block changes nothing.  An ArithmeticError from a
    re-factorization leaves the state part-updated; it is not usable afterwards.
    """
    a = _as_features(x, state.dim)
    if a.ndim == 2:
        rewards = np.asarray(y, dtype=np.float64)
        if rewards.shape != (len(a),):
            raise ValueError(f"{len(a)} feature rows have rewards of shape {rewards.shape}")
        if not len(a):
            return
        state.gram += a.T @ a
        state.moment += rewards @ a
        state.count += len(a)
    else:
        state.gram += a[:, None] * a  # np.outer(a, a), without its wrapper
        state.moment += float(y) * a
        state.count += 1
    if a.ndim == 2 or state.count % REFACTOR_EVERY == 0:
        gram_inv = np.linalg.inv(state.gram)
        sign, state.logdet = np.linalg.slogdet(state.gram)
        if sign <= 0:
            raise ArithmeticError("Gram matrix lost positive definiteness")
    else:
        inv_a = state.gram_inv @ a
        denom = 1.0 + float(a @ inv_a)
        gram_inv = state.gram_inv - inv_a[:, None] * inv_a / denom
        state.logdet += math.log(denom)
    state.gram_inv = 0.5 * (gram_inv + gram_inv.T)  # keep symmetry against roundoff drift


def conf_radius(state: LinearUcbState, cfg: UcbConfig) -> float:
    """beta = sigma * sqrt(2 log(det(V)^(1/2) det(lam I)^(-1/2) / delta)) + sqrt(lam) * S."""
    if abs(cfg.lam - state.lam) > 1e-12:
        raise ValueError(f"config lambda {cfg.lam} does not match state lambda {state.lam}")
    radicand = state.logdet - state.dim * math.log(state.lam) + 2.0 * math.log(1.0 / cfg.delta)
    if not math.isfinite(radicand) or radicand < 0.0:
        raise ArithmeticError("determinant ratio collapsed below 1; state is numerically broken")
    return cfg.sigma * math.sqrt(radicand) + math.sqrt(state.lam) * cfg.S


def ucb_select(state: LinearUcbState, cfg: UcbConfig, candidates) -> int:
    """Index of the (m, dim) candidate row maximizing x . V^-1 b + beta * |x|_{V^-1}.

    Among equal computed scores the lowest index wins.  Rows whose scores tie
    in exact arithmetic can still differ in the last bits, so rounding picks
    among them.
    """
    feats = np.asarray(candidates, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != state.dim:
        raise ValueError(f"candidates have shape {feats.shape}, expected (m, {state.dim})")
    if feats.shape[0] == 0:
        raise ValueError("candidates must be nonempty")
    beta = conf_radius(state, cfg)
    terms = feats @ state.gram_inv
    terms *= feats
    quad = _row_sum(terms)
    np.maximum(quad, 0.0, out=quad)  # clip Sherman-Morrison roundoff
    scores = feats @ (state.gram_inv @ state.moment) + beta * np.sqrt(quad)
    return int(np.argmax(scores))
