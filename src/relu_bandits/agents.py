"""Bandit policies behind a common step-wise protocol.

Every agent exposes ``select_arm(arms, rng) -> index`` on an (m, d) array of
unit rows and ``observe(y)`` for the chosen row's reward, and the two must
strictly alternate (ProtocolError otherwise).  One agent instance serves one
trial; distinct trials never share state.

Policies:

* ``OfuReluAgent``: the paper's two ReLU algorithms as one policy: explore
  uniformly, fit the ReLU model by ERM on the explored rows, then run the
  linear UCB engine on the sign-robust lifted features of the
  margin-restricted arm set.  A schedule resolved once from the config
  drives it: OFU-ReLU (``OfuReluConfig``) is one batch [0, T] that explores
  t0 rounds at gap nu; OFU-ReLU+ (``OfuReluPlusConfig``) needs no gap
  knowledge: a geometric batch grid shrinks the assumed gap batch by batch,
  explored rows accumulate across batches, each refit after the first
  starts its fit from the current estimate, and each refit rebuilds the
  ridge as one block from the history, lifted under the fresh estimate, so
  at every UCB round the ridge equals that replay.  The one policy
  difference is where the replay starts: round t0 + 1 for OFU-ReLU, whose
  exploration rows feed the fit only, and round 1 for OFU-ReLU+.
* ``OfulAgent``: plain linear UCB on the raw d-dimensional arms, the
  deliberately misspecified baseline.
* ``RandomAgent``: uniform choice, the sanity floor.

Agents never see the true parameters: the sign-corrected parameter vector is
a test-side oracle only.  What the UCB phase learns is its feature-space
surrogate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, _require
from .estimation import FitConfig, fit_erm, t0_schedule
from .linear_ucb import LinearUcbState, UcbConfig, ridge_update, ucb_select
from .relu_model import ReluNetwork, margin_mask, sign_robust_features_batch


@dataclass(frozen=True)
class OfuReluConfig:
    """t0 exploration rounds, then UCB over features frozen at the one fit.

    nu is the assumed gap; arms are filtered at margin nu/2 before selection.
    nu = 0 disables filtering, which is the experiment default since the true
    gap is unknown there.
    """

    t0: int
    ucb: UcbConfig
    fit: FitConfig
    nu: float = 0.0
    label: str = "ofu_relu"

    def __post_init__(self):
        _require("t0", self.t0, 1, integer=True)
        _require("nu", self.nu, 0.0)  # an infinite gap would filter every arm out every round


@dataclass(frozen=True)
class OfuReluPlusConfig:
    """Batched variant: initial gap guess nu0 shrunk by b per batch.

    Batch i covers rounds ((a^(i-1) - 1) T1, (a^i - 1) T1]; its exploration
    length comes from the t0 schedule increments (``build_batch_grid``) unless
    ``practical_override`` supplies per-batch lengths (each clamped to its batch).
    """

    nu0: float
    T1: int
    a: float
    b: float
    ucb: UcbConfig
    fit: FitConfig
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


@dataclass(frozen=True)
class OfulConfig:
    ucb: UcbConfig
    label: str = "oful"


@dataclass(frozen=True)
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
    """Batch count M = ceil(log(T/T1 + 1) / log a), boundaries (a^i - 1) T1.

    The last boundary is clamped to T.  Schedule-derived exploration sizes are
    the increments max(0, ceil(t0(nu_i)) - ceil(t0(nu_{i-1}))) at the run's k
    and d and the config's ucb.sigma, C1 and C2; an override list supplies
    them instead.  Either way each size is clamped to its batch length.
    """
    if T < cfg.T1:
        raise ConfigError(f"horizon T={T} is shorter than the first batch T1={cfg.T1}")
    # round before ceil so exact powers of a do not pick up a spurious batch
    M = max(1, math.ceil(round(math.log(T / cfg.T1 + 1.0) / math.log(cfg.a), 12)))
    boundaries = [0]
    for i in range(1, M + 1):
        raw = (cfg.a**i - 1.0) * cfg.T1
        bound = min(T, max(boundaries[-1] + 1, math.ceil(round(raw, 9))))
        boundaries.append(bound)
    boundaries[-1] = T
    nus = tuple(cfg.nu0 / cfg.b**i for i in range(1, M + 1))
    if cfg.practical_override is not None:
        if len(cfg.practical_override) < M:
            raise ConfigError(
                f"practical_override has {len(cfg.practical_override)} entries but the grid has {M} batches"
            )
        sizes = cfg.practical_override[:M]
    else:
        lengths = [math.ceil(t0_schedule(nu, k, d, cfg.ucb.sigma, T, C1=cfg.C1, C2=cfg.C2)) for nu in (cfg.nu0, *nus)]
        sizes = [max(0, cur - prev) for prev, cur in zip(lengths, lengths[1:])]
    sizes = tuple(min(size, boundaries[i + 1] - boundaries[i]) for i, size in enumerate(sizes))
    return BatchGrid(M=M, boundaries=tuple(boundaries), nus=nus, explore_sizes=sizes)


class _SequentialAgent:
    """Protocol bookkeeping: enforces the select/observe alternation."""

    label: str = "agent"

    def __init__(self):
        self._t = 0  # rounds completed
        self._pending: np.ndarray | None = None  # the chosen row awaiting its reward

    def select_arm(self, arms: np.ndarray, rng: np.random.Generator) -> int:
        if self._pending is not None:
            raise ProtocolError("observe() must be called before the next select_arm()")
        idx = int(self._select(arms, rng, self._t + 1))
        if not 0 <= idx < len(arms):
            raise ValueError(f"chosen index {idx} outside the offered set of {len(arms)}")
        self._pending = arms[idx]
        return idx

    def observe(self, y: float) -> None:
        if self._pending is None:
            raise ProtocolError("select_arm() must be called before observe()")
        action, self._pending = self._pending, None
        self._t += 1
        self._observe(self._t, action, float(y))

    def _select(self, arms: np.ndarray, rng: np.random.Generator, t: int) -> int:
        raise NotImplementedError

    def _observe(self, t: int, action: np.ndarray, reward: float) -> None:
        raise NotImplementedError


class RandomAgent(_SequentialAgent):
    def __init__(self, cfg: RandomConfig = RandomConfig()):
        super().__init__()
        self.label = cfg.label

    def _select(self, arms, rng, t):
        return int(rng.integers(len(arms)))

    def _observe(self, t, action, reward):
        pass


class OfulAgent(_SequentialAgent):
    """Linear UCB on the raw arms; misspecified on purpose for ReLU rewards."""

    def __init__(self, d: int, cfg: OfulConfig):
        super().__init__()
        self.label = cfg.label
        self._cfg = cfg
        self._ridge = LinearUcbState(d, cfg.ucb.lam)

    @property
    def ridge(self) -> LinearUcbState:
        """The live ridge state, which the agent updates in place."""
        return self._ridge

    def _select(self, arms, rng, t):
        return ucb_select(self._ridge, self._cfg.ucb, arms)

    def _observe(self, t, action, reward):
        ridge_update(self._ridge, action, reward)


def _resolve_schedule(cfg: OfuReluConfig | OfuReluPlusConfig, k: int, d: int, T: int) -> tuple[BatchGrid, int]:
    """The batch grid a ReLU config runs, and the first history row its ridge replays.

    OFU-ReLU is one batch [0, T] at gap nu whose window explores t0 rounds
    (clamped to T).  Its t0 exploration rows feed the fit only, so its ridge
    starts at round t0 + 1; OFU-ReLU+ replays every round.
    """
    if isinstance(cfg, OfuReluConfig):
        t0 = min(cfg.t0, T)
        return BatchGrid(M=1, boundaries=(0, T), nus=(cfg.nu,), explore_sizes=(t0,)), t0
    return build_batch_grid(cfg, k, d, T), 0


class OfuReluAgent(_SequentialAgent):
    """Explore, fit the ReLU neurons, then UCB over sign-robust features, batch by batch.

    One agent runs both ReLU configs through the schedule ``_resolve_schedule``
    returns; OFU-ReLU is the one-batch case of OFU-ReLU+.  The agent keeps one
    history of its T rounds: chosen rows, rewards and an explored flag.
    Within batch i the first explore_sizes[i] rounds sample uniformly; the
    last of them refits the model on every explored round so far (a later
    refit starts from the current estimate, ``fit_erm``'s warm path) and
    rebuilds the 2kd ridge state from the history from the replay start,
    lifted under the new estimate and absorbed as one block (features of past
    actions change with the estimate, so the state cannot be patched across
    a refit).  Between refits each UCB round enters the ridge incrementally,
    so at every UCB round the state equals that replay under the current
    estimate.

    Until the first refit the agent keeps exploring, counted in
    ``forced_exploration_rounds``.  A UCB round projects the offered arms on
    the estimate once and keeps the arms with margin nu_i/2 in that
    projection; when that empties the offered set, the full set is used and
    the round is counted in ``fallback_rounds``.  The lift reads the same
    projection, so the filter and the indicators cannot disagree.
    """

    def __init__(self, k: int, d: int, T: int, cfg: OfuReluConfig | OfuReluPlusConfig):
        super().__init__()
        self.label = cfg.label
        self._k, self._d = k, d
        self._cfg = cfg
        self.grid, self._replay_start = _resolve_schedule(cfg, k, d, T)
        # the round at which each batch stops exploring
        self._explore_end = [start + size for start, size in zip(self.grid.boundaries, self.grid.explore_sizes)]
        self._estimate: ReluNetwork | None = None
        self._ridge = LinearUcbState(2 * k * d, cfg.ucb.lam)
        self._pending_features: np.ndarray | None = None
        self._actions = np.empty((T, d))
        self._rewards = np.empty(T)
        self._explored = np.zeros(T, dtype=bool)
        self.fallback_rounds = 0
        self.forced_exploration_rounds = 0

    @property
    def estimate(self) -> ReluNetwork | None:
        return self._estimate

    @property
    def ridge(self) -> LinearUcbState:
        """The live ridge state: updated in place, replaced at each refit."""
        return self._ridge

    @property
    def pool_size(self) -> int:
        """Number of explored rounds, the rows the next refit uses."""
        return int(self._explored[: self._t].sum())

    def history(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (t, d) chosen rows and t rewards of the rounds so far."""
        return self._actions[: self._t].copy(), self._rewards[: self._t].copy()

    def _batch_of(self, t: int) -> int:
        # the first batch i with t <= boundaries[i + 1]; the last batch past T
        return bisect_left(self.grid.boundaries, t, 1, self.grid.M) - 1

    def _select(self, arms, rng, t):
        i = self._batch_of(t)
        if t <= self._explore_end[i] or self._estimate is None:
            if t > self._explore_end[i]:
                # no refit has run yet: keep exploring rather than select without a model
                self.forced_exploration_rounds += 1
            return int(rng.integers(len(arms)))
        proj = arms @ self._estimate.weights.T  # one projection serves the filter and the lift
        mask = margin_mask(proj, self.grid.nus[i] / 2.0)
        kept = np.flatnonzero(mask)
        if len(kept) == len(arms):
            kept = None  # every arm, without copying them
        elif not len(kept):
            self.fallback_rounds += 1
            kept = None
        else:
            arms, proj = arms.take(kept, axis=0), proj.take(kept, axis=0)
        feats = sign_robust_features_batch(arms, proj)
        j = ucb_select(self._ridge, self._cfg.ucb, feats)
        self._pending_features = feats[j]
        return j if kept is None else int(kept[j])

    def _observe(self, t, action, reward):
        self._actions[t - 1] = action
        self._rewards[t - 1] = reward
        if self._pending_features is not None:
            # a UCB round: absorb under the current estimate
            ridge_update(self._ridge, self._pending_features, reward)
            self._pending_features = None
            return
        # an exploration round, which only the next fit reads
        self._explored[t - 1] = True
        i = self._batch_of(t)
        if t == self._explore_end[i] and self.grid.boundaries[i] < t:
            self._refit()

    def _refit(self):
        X, y, explored = self._actions[: self._t], self._rewards[: self._t], self._explored[: self._t]
        self._estimate = fit_erm(X[explored], y[explored], self._k, self._cfg.fit, init=self._estimate)
        self._ridge = LinearUcbState(2 * self._k * self._d, self._cfg.ucb.lam)
        start = self._replay_start
        if start < self._t:  # OFU-ReLU replays nothing; OFU-ReLU+ absorbs its whole replay as one block
            rows = X[start:]  # off the UCB path, so the lift needs no margin filter
            ridge_update(self._ridge, sign_robust_features_batch(rows, rows @ self._estimate.weights.T), y[start:])


AgentConfig = OfuReluConfig | OfuReluPlusConfig | OfulConfig | RandomConfig


def make_agent(cfg: AgentConfig, k: int, d: int, T: int) -> _SequentialAgent:
    """Instantiate the agent a config block describes, for a (k, d, T) run."""
    if isinstance(cfg, (OfuReluConfig, OfuReluPlusConfig)):
        return OfuReluAgent(k, d, T, cfg)
    if isinstance(cfg, OfulConfig):
        return OfulAgent(d, cfg)
    if isinstance(cfg, RandomConfig):
        return RandomAgent(cfg)
    raise ConfigError(f"unknown agent config type {type(cfg).__name__}")
