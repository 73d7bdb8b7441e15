"""Experiment harness: instances, trials, regret accounting, aggregation.

An arm set is an (m, d) array of unit rows, redrawn fresh every round by
``sample_arms`` (unit by construction, so never re-checked).  The regret
comparator is per-round: r_t = max over the round's offered set of f minus
f(chosen).

Streams: an experiment draws everything from one master seed, and every
stream is ``_stream(seed, trial, tag)``, a SeedSequence((seed, trial, tag)):
- tag 0 draws the trial's instance;
- tag 1 is the trial's environment, which run_trial splits into arm sets,
  reward noise and agent tie-breaking/exploration.
So every algorithm of a trial sees the same instance, arm sets and noise
(common random numbers), and results do not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import AgentConfig, make_agent
from .errors import GenerationError, _require
from .relu_model import ReluNetwork, _unit_rows, eval_f_batch

MAX_GEN_ATTEMPTS = 10_000


@dataclass(frozen=True, eq=False)
class Instance:
    """A sampled environment: true network and noise level."""

    truth: ReluNetwork
    sigma: float

    def __post_init__(self):
        _check_instance(self.truth.k, self.truth.d, 0.0, self.sigma)  # the rows are given, so no separation


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved simulate configuration (defaults already applied)."""

    k: int
    d: int
    T: int
    trials: int
    arms_per_round: int
    sigma: float
    alpha0: float
    seed: int
    algorithms: tuple[AgentConfig, ...]
    out_dir: str
    echo: dict


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


def _stream(seed: int, trial: int, tag: int) -> np.random.Generator:
    """One generator of the stream table in the module docstring."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial, tag)))


def _check_instance(k: int, d: int, alpha0: float, sigma: float) -> None:
    """The instance-input rule: integers k >= 1 and d >= 2, finite sigma >= 0, and 0 <= alpha0 <= what k rows reach.

    For unit rows |wi - wj|^2 + |wi + wj|^2 = 4, so no pair separates by more than sqrt(2).  In the
    plane, k >= 3 rows are k lines through the origin, two of which meet at an angle of at most pi/k,
    so they separate by at most 2 sin(pi/(2k)).  At k = 2 that form rounds 1 ulp below sqrt(2).
    """
    _require("k", k, 1, integer=True)
    _require("d", d, 2, integer=True)
    _require("sigma", sigma, 0.0)
    _require("alpha0", alpha0, 0.0)
    top = 2.0 * math.sin(math.pi / (2 * k)) if d == 2 and k >= 3 else math.sqrt(2.0)
    if k >= 2 and alpha0 > top:
        raise ValueError(f"alpha0={alpha0} is infeasible: {k} unit rows in d={d} separate by at most {top}")


def gen_instance(k: int, d: int, alpha0: float, sigma: float, rng: np.random.Generator) -> Instance:
    """Sample k unit rows with pairwise min(|wi - wj|, |wi + wj|) >= alpha0.

    Rejection-resamples the whole matrix; gives up after 10^4 attempts, which
    means alpha0 is infeasible for this (k, d).
    """
    _check_instance(k, d, alpha0, sigma)
    for _ in range(MAX_GEN_ATTEMPTS):
        w = _unit_rows(rng, k, d)
        if k == 1 or alpha0 == 0.0:
            return Instance(truth=ReluNetwork(w), sigma=sigma)
        diff = np.linalg.norm(w[:, None, :] - w[None, :, :], axis=2)
        summ = np.linalg.norm(w[:, None, :] + w[None, :, :], axis=2)
        sep = np.minimum(diff, summ)
        iu = np.triu_indices(k, 1)
        if sep[iu].min() >= alpha0:
            return Instance(truth=ReluNetwork(w), sigma=sigma)
    raise GenerationError(
        f"no instance with separation {alpha0} found for k={k}, d={d} in {MAX_GEN_ATTEMPTS} attempts"
    )


def sample_arms(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """(m, d) array of i.i.d. uniform unit rows (normalized Gaussians), for integers m >= 1 and d >= 2."""
    _require("m", m, 1, integer=True)
    _require("d", d, 2, integer=True)
    return _unit_rows(rng, m, d)


def run_trial(
    instance: Instance,
    agent_cfg: AgentConfig,
    T: int,
    m: int,
    rng: np.random.Generator,
    *,
    trial_seed: int = -1,
) -> TrialTrace:
    """Play one agent for T rounds and log the full trace."""
    _require("T", T, 1, integer=True)
    arms_rng, noise_rng, agent_rng = rng.spawn(3)
    agent = make_agent(agent_cfg, instance.truth.k, instance.truth.d, T)
    chosen = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    inst_regret = np.empty(T)
    for t in range(1, T + 1):
        arms = sample_arms(m, instance.truth.d, arms_rng)
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


def _run_cell(args: tuple[ExperimentConfig, int, int, Instance]) -> TrialTrace:
    cfg, algo_idx, trial, inst = args
    env_rng = _stream(cfg.seed, trial, 1)
    return run_trial(inst, cfg.algorithms[algo_idx], cfg.T, cfg.arms_per_round, env_rng, trial_seed=trial)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[TrialTrace], list[AggregateResult]]:
    """Run every (algorithm, trial) cell; results are independent of jobs.

    Each trial's instance is drawn once, here, and handed to every cell of
    that trial.  The pool has at most one worker per cell.
    """
    insts = [gen_instance(cfg.k, cfg.d, cfg.alpha0, cfg.sigma, _stream(cfg.seed, t, 0)) for t in range(cfg.trials)]
    cells = [(cfg, a, t, insts[t]) for a in range(len(cfg.algorithms)) for t in range(cfg.trials)]
    if jobs <= 1:
        traces = [_run_cell(c) for c in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: multiprocessing is slow to import

        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            traces = list(pool.map(_run_cell, cells))  # in cell order
    n = cfg.trials
    return traces, [aggregate(traces[a * n : (a + 1) * n]) for a in range(len(cfg.algorithms))]
