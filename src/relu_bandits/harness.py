"""Experiment harness: instances, trials, regret accounting, aggregation.

An arm set is an (m, d) array of unit rows, redrawn fresh every round by
``sample_arms`` (unit by construction, so never re-checked); a caller's
``fixed_arms`` is checked once per trial.  The regret comparator is per-round:
r_t = max over the round's offered set of f minus f(chosen).  With a fixed
arm set this reduces to the usual fixed-comparator regret.

Randomness discipline: run_trial derives three independent child streams
(arm sets, reward noise, agent tie-breaking/exploration) from the generator
it is given, so a trial is a pure function of (instance, config, T, m, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import AgentConfig, _SequentialAgent, make_agent
from .errors import GenerationError
from .relu_model import ReluNetwork, _as_unit_rows, _unit_rows, eval_f_batch

MAX_GEN_ATTEMPTS = 10_000


@dataclass(frozen=True, eq=False)
class Instance:
    """A sampled environment: true network, noise level, separation used."""

    truth: ReluNetwork
    sigma: float
    alpha0: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True, eq=False)
class TrialTrace:
    """Per-round log of one seeded run.

    All arrays have length T; cum_regret is the running sum of inst_regret.
    """

    algorithm: str
    seed: int
    t: np.ndarray
    chosen: np.ndarray
    rewards: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        for name in ("chosen", "rewards", "inst_regret", "cum_regret"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace field {name} has length {len(getattr(self, name))}, expected {n}")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Cross-trial mean cumulative regret with 95% normal-approximation CI."""

    algorithm: str
    t: np.ndarray
    mean_cum_regret: np.ndarray
    ci_half: np.ndarray
    n_trials: int


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def gen_instance(k: int, d: int, alpha0: float, sigma: float, rng) -> Instance:
    """Sample k unit rows with pairwise min(|wi - wj|, |wi + wj|) >= alpha0.

    Rejection-resamples the whole matrix; gives up after 10^4 attempts, which
    means alpha0 is infeasible for this (k, d).  For k >= 2 it can never exceed
    sqrt(2): for unit rows |wi - wj|^2 + |wi + wj|^2 = 4.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if d < 2:
        raise ValueError("d must be at least 2")
    if alpha0 < 0.0:
        raise ValueError("alpha0 must be nonnegative")
    gen = _as_generator(rng)
    for _ in range(MAX_GEN_ATTEMPTS):
        w = _unit_rows(gen, k, d)
        if k == 1 or alpha0 == 0.0:
            return Instance(truth=ReluNetwork(w), sigma=sigma, alpha0=alpha0)
        diff = np.linalg.norm(w[:, None, :] - w[None, :, :], axis=2)
        summ = np.linalg.norm(w[:, None, :] + w[None, :, :], axis=2)
        sep = np.minimum(diff, summ)
        iu = np.triu_indices(k, 1)
        if sep[iu].min() >= alpha0:
            return Instance(truth=ReluNetwork(w), sigma=sigma, alpha0=alpha0)
    raise GenerationError(
        f"no instance with separation {alpha0} found for k={k}, d={d} in {MAX_GEN_ATTEMPTS} attempts"
    )


def sample_arms(m: int, d: int, rng) -> np.ndarray:
    """(m, d) array of i.i.d. uniform unit rows (normalized Gaussians)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _unit_rows(_as_generator(rng), m, d)


def run_trial(
    instance: Instance,
    agent_cfg: AgentConfig,
    T: int,
    m: int,
    rng,
    *,
    trial_seed: int = -1,
    agent: _SequentialAgent | None = None,
    fixed_arms: np.ndarray | None = None,
) -> TrialTrace:
    """Play one agent for T rounds and log the full trace.

    ``agent`` and ``fixed_arms`` are overrides for controlled experiments:
    a prebuilt agent replaces the one the config would construct, and a fixed
    (m, d) arm set suppresses per-round redrawing (the comparator then
    coincides with the global-best one).  ``fixed_arms`` must be nonempty,
    finite and of unit rows in the instance's dimension.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if fixed_arms is not None:
        fixed_arms = _as_unit_rows(fixed_arms, "fixed_arms", instance.truth.d)
    gen = _as_generator(rng)
    arms_rng, noise_rng, agent_rng = gen.spawn(3)
    if agent is None:
        agent = make_agent(agent_cfg, instance.truth.k, instance.truth.d, T)
    chosen = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    inst_regret = np.empty(T)
    for t in range(1, T + 1):
        arms = fixed_arms if fixed_arms is not None else sample_arms(m, instance.truth.d, arms_rng)
        idx = agent.select_arm(arms, agent_rng)
        fvals = eval_f_batch(instance.truth, arms)
        noise = noise_rng.standard_normal()  # drawn even when sigma = 0, for stream stability
        y = float(fvals[idx]) + instance.sigma * noise
        agent.observe(y)
        i = t - 1
        chosen[i] = idx
        rewards[i] = y
        inst_regret[i] = float(fvals.max() - fvals[idx])
    return TrialTrace(
        algorithm=agent.label,
        seed=int(trial_seed),
        t=np.arange(1, T + 1, dtype=np.int64),
        chosen=chosen,
        rewards=rewards,
        inst_regret=inst_regret,
        cum_regret=np.cumsum(inst_regret),
    )


def aggregate(traces: list[TrialTrace]) -> AggregateResult:
    """Mean cumulative regret and 1.96 * std / sqrt(n) half-widths per round.

    The std is the population one (ddof = 0).  Requires at least two traces
    of equal length carrying the same algorithm tag.
    """
    if len(traces) < 2:
        raise ValueError("aggregation needs at least two traces")
    tag = traces[0].algorithm
    n = len(traces[0])
    for tr in traces[1:]:
        if tr.algorithm != tag:
            raise ValueError(f"mixed algorithm tags: {tag!r} vs {tr.algorithm!r}")
        if len(tr) != n:
            raise ValueError(f"mixed trace lengths: {n} vs {len(tr)}")
    stack = np.stack([tr.cum_regret for tr in traces])
    mean = stack.mean(axis=0)
    half = 1.96 * stack.std(axis=0, ddof=0) / np.sqrt(len(traces))
    return AggregateResult(
        algorithm=tag,
        t=traces[0].t.copy(),
        mean_cum_regret=mean,
        ci_half=half,
        n_trials=len(traces),
    )
