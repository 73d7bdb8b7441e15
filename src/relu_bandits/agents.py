"""Bandit policies behind a common step-wise protocol.

Every agent exposes ``select_arm(arms, rng) -> index`` on an (m, d) array of
unit rows and ``observe(y)`` for the chosen row's reward, and the two must
strictly alternate (RuntimeError otherwise).  One agent instance serves one
trial; distinct trials never share state.

Policies, each built on the one before it, as the paper describes OFU-ReLU:

* ``RandomAgent``: uniform choice, the sanity floor; it holds the protocol.
* ``OfulAgent``: linear UCB (OFUL) on the rows it is given; on the raw
  d-dimensional arms it is the deliberately misspecified baseline.
* ``OfuReluAgent``: the paper's two ReLU algorithms as one policy: it
  explores as ``RandomAgent``, fits the ReLU model by ERM on the explored
  rows, then runs as ``OfulAgent`` on the 2kd sign-robust lifted features
  of the margin-restricted arm set, along a per-round phase plan resolved
  once from the config.  OFU-ReLU (``OfuReluConfig``) is one batch [0, T]
  that explores t0 rounds at gap nu; OFU-ReLU+ (``OfuReluPlusConfig``)
  needs no gap knowledge: a geometric batch grid shrinks the assumed gap
  batch by batch and refits once per non-empty exploration window.

Agents never see the true parameters: the sign-corrected parameter vector is
a test-side oracle only.  What the UCB phase learns is its feature-space
surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _require
from .estimation import FitConfig, fit_erm, t0_schedule
from .linear_ucb import LinearUcbState, UcbConfig, ridge_update, ucb_select
from .relu_model import ReluNetwork, margin_mask, sign_robust_features_batch


@dataclass(frozen=True, kw_only=True)
class OfuReluConfig:
    """t0 exploration rounds, then UCB over features frozen at the one fit.

    nu is the assumed gap; arms are filtered at margin nu/2 before selection.
    nu = 0 disables filtering, which is the experiment default since the true
    gap is unknown there.
    """

    ucb: UcbConfig
    fit: FitConfig
    t0: int = 20
    nu: float = 0.0
    label: str = "ofu_relu"

    def __post_init__(self):
        _require("t0", self.t0, 1, integer=True)
        _require("nu", self.nu, 0.0)  # an infinite gap would filter every arm out every round


@dataclass(frozen=True, kw_only=True)
class OfuReluPlusConfig:
    """Batched variant: initial gap guess nu0 shrunk by b per batch.

    Batch i covers rounds ((a^(i-1) - 1) T1, (a^i - 1) T1]; its exploration
    length comes from the t0 schedule increments (``build_batch_grid``) unless
    ``practical_override`` supplies per-batch lengths (each clamped to its batch).
    """

    ucb: UcbConfig
    fit: FitConfig
    nu0: float = 1.0
    T1: int = 10
    a: float = 2.0
    b: float = 2.0 ** (1.0 / 32.0)
    C1: float = 1.0
    C2: float = 1.0
    practical_override: tuple[int, ...] | None = None
    label: str = "ofu_relu_plus"

    def __post_init__(self):
        _require("nu0", self.nu0, 0.0, strict=True)
        _require("T1", self.T1, 1, integer=True)
        _require("a", self.a, 1.0, strict=True)
        _require("b", self.b, 1.0, strict=True)
        _require("C1", self.C1, 0.0, strict=True)
        _require("C2", self.C2, 0.0, strict=True)
        if self.practical_override is not None:
            sizes = tuple(self.practical_override)
            for i, v in enumerate(sizes):  # no silent truncation: (2.9, True) is not (2, 1)
                _require(f"practical_override[{i}]", v, 0, integer=True)
            object.__setattr__(self, "practical_override", tuple(int(v) for v in sizes))


@dataclass(frozen=True, kw_only=True)
class OfulConfig:
    ucb: UcbConfig
    label: str = "oful"


@dataclass(frozen=True, kw_only=True)
class RandomConfig:
    label: str = "random"


@dataclass(frozen=True)
class BatchGrid:
    """Resolved batch structure: boundaries T_0..T_M, gaps, exploration sizes."""

    M: int
    boundaries: tuple[int, ...]  # length M+1, starting at T_0 = 0
    nus: tuple[float, ...]  # nu_i = nu0 / b^i, one per batch
    explore_sizes: tuple[int, ...]  # one per batch, each at most its batch length: what actually runs


def build_batch_grid(cfg: OfuReluPlusConfig, k: int, d: int, T: int) -> BatchGrid:
    """Boundaries ceil((a^i - 1) T1), each at least one past the last, added until one reaches T.

    The boundary that reaches T is clamped to it, so the M batches are
    nonempty and M <= T.  Batch i assumes the gap nu_i = nu0 / b^i.
    Schedule-derived exploration sizes are the increments
    max(0, ceil(t0(nu_i)) - ceil(t0(nu_{i-1}))) at the run's k and d and the
    config's ucb.sigma, C1 and C2; an override list supplies them instead.
    Either way each size is clamped to its batch length.  A ValueError names
    a for a boundary out of floating-point range, and a and b for a b^i.
    """
    if T < cfg.T1:
        raise ValueError(f"horizon T={T} is shorter than the first batch T1={cfg.T1}")
    boundaries, nus = [0], []
    while boundaries[-1] < T:
        i = len(boundaries)
        raw = (cfg.a**i - 1.0) * cfg.T1  # only i = 1 can overflow: a later batch has a^(i-1) < T + 1
        if raw == math.inf:
            raise ValueError(f"a={cfg.a!r} puts batch {i}'s boundary (a^{i} - 1) T1 out of floating-point range")
        boundaries.append(min(T, max(boundaries[-1] + 1, math.ceil(round(raw, 9)))))
        try:
            nus.append(cfg.nu0 / cfg.b**i)
        except OverflowError:
            msg = f"a={cfg.a!r} and b={cfg.b!r} put batch {i}'s gap divisor b^{i} out of floating-point range"
            raise ValueError(msg) from None
    M = len(nus)
    if cfg.practical_override is not None:
        if len(cfg.practical_override) < M:
            raise ValueError(
                f"practical_override has {len(cfg.practical_override)} entries but the grid has {M} batches"
            )
        sizes = cfg.practical_override[:M]
    else:
        lengths = [math.ceil(t0_schedule(nu, k, d, cfg.ucb.sigma, T, C1=cfg.C1, C2=cfg.C2)) for nu in (cfg.nu0, *nus)]
        sizes = [max(0, cur - prev) for prev, cur in zip(lengths, lengths[1:])]
    sizes = tuple(min(size, boundaries[i + 1] - boundaries[i]) for i, size in enumerate(sizes))
    return BatchGrid(M=M, boundaries=tuple(boundaries), nus=tuple(nus), explore_sizes=sizes)


class RandomAgent:
    """Uniform choice, the sanity floor, and the select/observe protocol every agent inherits."""

    def __init__(self, cfg: RandomConfig = RandomConfig()):
        self.label = cfg.label
        self._t = 0  # rounds completed
        self._pending: np.ndarray | None = None  # the chosen row awaiting its reward

    def select_arm(self, arms: np.ndarray, rng: np.random.Generator) -> int:
        if self._pending is not None:
            raise RuntimeError("observe() must be called before the next select_arm()")
        idx = int(self._select(arms, rng, self._t + 1))
        if not 0 <= idx < len(arms):
            raise ValueError(f"chosen index {idx} outside the offered set of {len(arms)}")
        self._pending = arms[idx]
        return idx

    def observe(self, y: float) -> None:
        if self._pending is None:
            raise RuntimeError("select_arm() must be called before observe()")
        action, self._pending = self._pending, None
        self._t += 1
        self._observe(self._t, action, float(y))

    def _select(self, arms, rng, t):
        return int(rng.integers(len(arms)))

    def _observe(self, t, action, reward):
        pass


class OfulAgent(RandomAgent):
    """Linear UCB on the rows it is given, with ``ridge`` its live state, updated in place."""

    def __init__(self, dim: int, cfg: OfulConfig | OfuReluConfig | OfuReluPlusConfig):
        super().__init__(cfg)
        self._cfg = cfg
        self.ridge = LinearUcbState(dim, cfg.ucb.lam)

    def _select(self, arms, rng, t):
        return ucb_select(self.ridge, self._cfg.ucb, arms)

    def _observe(self, t, action, reward):
        ridge_update(self.ridge, action, reward)


class OfuReluAgent(OfulAgent):
    """Explore, fit the ReLU neurons, then UCB over sign-robust features, batch by batch.

    One agent runs both ReLU configs along a phase plan that the constructor
    resolves from the batch grid, one entry per round.  OFU-ReLU is the
    one-batch case of OFU-ReLU+: one batch [0, T] at gap nu whose window
    explores t0 rounds (clamped to T); those rows feed the fit only, so its
    ridge replays the history from round t0 + 1, OFU-ReLU+'s from round 1.

    * explore: the first explore_sizes[i] rounds of batch i choose as
      ``RandomAgent`` does, and so does every round before the first window,
      having no fit to select with (counted in ``forced_exploration_rounds``);
    * refit: the last round of each nonempty window refits the model on every
      explored round so far (after the first fit, from the current estimate:
      ``fit_erm``'s warm path) and rebuilds the 2kd ridge state as one block
      from the history from the replay start, lifted under the new estimate;
    * margin: any other round of batch i is a UCB round.  It projects the
      offered arms on the estimate once and keeps those with margin nu_i/2
      in that projection, or all of them when none has (counted in
      ``fallback_rounds``); the lift reads the same projection, and
      ``OfulAgent`` selects a lifted row and absorbs it, so at every UCB
      round the ridge equals the replay.

    ``estimate`` is the current fit (None before the first); each refit
    replaces ``ridge``.
    """

    def __init__(self, k: int, d: int, T: int, cfg: OfuReluConfig | OfuReluPlusConfig):
        super().__init__(2 * k * d, cfg)
        self._k = k
        if isinstance(cfg, OfuReluConfig):
            self._replay_start = min(cfg.t0, T)  # the first history row the ridge replays
            self.grid = BatchGrid(M=1, boundaries=(0, T), nus=(cfg.nu,), explore_sizes=(self._replay_start,))
        else:
            self.grid, self._replay_start = build_batch_grid(cfg, k, d, T), 0
        # the phase plan, indexed by round t - 1: explore or select, and the UCB margin; plus the rounds that refit
        windows = [(start, start + size) for start, size in zip(self.grid.boundaries, self.grid.explore_sizes) if size]
        self._unfitted = windows[0][0] if windows else T  # the rounds before the first window
        self._explore = np.zeros(T, dtype=bool)
        for start, end in [(0, self._unfitted), *windows]:
            self._explore[start:end] = True
        self._refits = {end for _, end in windows}
        self._margins = np.repeat(np.array(self.grid.nus) / 2.0, np.diff(self.grid.boundaries))
        self.estimate: ReluNetwork | None = None
        self._pending_features: np.ndarray | None = None
        self._actions = np.empty((T, d))
        self._rewards = np.empty(T)
        self.fallback_rounds = 0

    @property
    def pool_size(self) -> int:
        """Number of explored rounds, the rows the next refit uses."""
        return int(self._explore[: self._t].sum())

    @property
    def forced_exploration_rounds(self) -> int:
        """Rounds so far that explored before the first window, for want of a fit."""
        return min(self._t, self._unfitted)

    def history(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (t, d) chosen rows and t rewards of the rounds so far."""
        return self._actions[: self._t].copy(), self._rewards[: self._t].copy()

    def _select(self, arms, rng, t):
        if self._explore[t - 1]:
            return RandomAgent._select(self, arms, rng, t)
        proj = arms @ self.estimate.weights.T  # one projection serves the filter and the lift
        mask = margin_mask(proj, self._margins[t - 1])
        kept = np.flatnonzero(mask)
        if len(kept) == len(arms):
            kept = None  # every arm, without copying them
        elif not len(kept):
            self.fallback_rounds += 1
            kept = None
        else:
            arms, proj = arms.take(kept, axis=0), proj.take(kept, axis=0)
        feats = sign_robust_features_batch(arms, proj)
        j = super()._select(feats, rng, t)
        self._pending_features = feats[j]
        return j if kept is None else int(kept[j])

    def _observe(self, t, action, reward):
        self._actions[t - 1] = action
        self._rewards[t - 1] = reward
        if self._pending_features is not None:
            # a UCB round: absorb under the current estimate
            super()._observe(t, self._pending_features, reward)
            self._pending_features = None
        elif t in self._refits:
            self._refit()

    def _refit(self):
        X, y, explored = self._actions[: self._t], self._rewards[: self._t], self._explore[: self._t]
        self.estimate = fit_erm(X[explored], y[explored], self._k, self._cfg.fit, init=self.estimate)
        self.ridge = LinearUcbState(self.ridge.dim, self.ridge.lam)
        start = self._replay_start
        if start < self._t:  # OFU-ReLU replays nothing; OFU-ReLU+ absorbs its whole replay as one block
            rows = X[start:]  # off the UCB path, so the lift needs no margin filter
            ridge_update(self.ridge, sign_robust_features_batch(rows, rows @ self.estimate.weights.T), y[start:])


AgentConfig = OfuReluConfig | OfuReluPlusConfig | OfulConfig | RandomConfig


def make_agent(cfg: AgentConfig, k: int, d: int, T: int) -> RandomAgent:
    """Instantiate the agent a config block describes, for a (k, d, T) run."""
    if isinstance(cfg, (OfuReluConfig, OfuReluPlusConfig)):
        return OfuReluAgent(k, d, T, cfg)
    if isinstance(cfg, OfulConfig):
        return OfulAgent(d, cfg)
    if isinstance(cfg, RandomConfig):
        return RandomAgent(cfg)
    raise ValueError(f"unknown agent config type {type(cfg).__name__}")
