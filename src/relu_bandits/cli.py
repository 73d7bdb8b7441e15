"""Command-line interface: simulate, estimate, check-bounds.

Config files are strict JSON: unknown keys are rejected with a field-level
message and exit code 2, so typos cannot silently fall back to defaults.
All randomness flows from one master seed; per-trial streams are derived as
SeedSequence((master, trial, tag)) with tag 0 for the instance and tag 1 for
the environment, so results do not depend on scheduling order or --jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .agents import AgentConfig, OfulConfig, OfuReluConfig, OfuReluPlusConfig, RandomConfig
from .errors import BoundVacuousError, ConfigError
from .estimation import (
    BoundParams,
    FitConfig,
    Sample,
    alpha_bound,
    fit_erm,
    h_bound,
    match_neurons,
    t0_schedule,
    zeta_bound,
)
from .harness import AggregateResult, TrialTrace, aggregate, gen_instance, run_trial, sample_arms
from .linear_ucb import UcbConfig
from .relu_model import eval_f_batch
from .reporting import emit_svg, export_csv, write_summary


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


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _get(block: dict, key: str, kind, default, where: str, *, required: bool = False):
    if key not in block:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    v = block[key]
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise ConfigError(f"key '{key}' in {where} must be an integer")
    if kind is float and not (isinstance(v, float) and math.isfinite(v)):
        raise ConfigError(f"key '{key}' in {where} must be a finite number")
    if kind is str and not isinstance(v, str):
        raise ConfigError(f"key '{key}' in {where} must be a string")
    return v


def _parse_fit(block: dict | None, where: str) -> FitConfig:
    if block is None:
        return FitConfig()
    if not isinstance(block, dict):
        raise ConfigError(f"'fit' in {where} must be an object")
    _check_keys(block, {"restarts", "max_iters", "step_size", "tol", "seed"}, f"{where}.fit")
    base = FitConfig()
    return FitConfig(
        restarts=_get(block, "restarts", int, base.restarts, where),
        max_iters=_get(block, "max_iters", int, base.max_iters, where),
        step_size=_get(block, "step_size", float, base.step_size, where),
        tol=_get(block, "tol", float, base.tol, where),
        seed=_get(block, "seed", int, base.seed, where),
    )


def _fit_echo(fit: FitConfig) -> dict:
    return {
        "restarts": fit.restarts,
        "max_iters": fit.max_iters,
        "step_size": fit.step_size,
        "tol": fit.tol,
        "seed": fit.seed,
    }


def _default_delta(T: int) -> float:
    return 1.0 / math.sqrt(T) if T >= 2 else 0.5


def _parse_algorithm(block: dict, idx: int, k: int, d: int, T: int, sigma: float) -> tuple[AgentConfig, dict]:
    if not isinstance(block, dict):
        raise ConfigError(f"algorithms[{idx}] must be an object")
    where = f"algorithms[{idx}]"
    name = _get(block, "name", str, None, where, required=True)
    label = _get(block, "label", str, name, where)
    if name == "random":
        _check_keys(block, {"name", "label"}, where)
        return RandomConfig(label=label), {"name": name, "label": label}
    lam = _get(block, "lambda", float, 1.0, where)
    delta = _get(block, "delta", float, _default_delta(T), where)
    ucb_sigma = _get(block, "ucb_sigma", float, sigma, where)
    if name == "oful":
        _check_keys(block, {"name", "label", "lambda", "S", "delta", "ucb_sigma"}, where)
        S = _get(block, "S", float, math.sqrt(k), where)
        ucb = UcbConfig(sigma=ucb_sigma, S=S, delta=delta, lam=lam)
        echo = {"name": name, "label": label, "lambda": lam, "S": S, "delta": delta, "ucb_sigma": ucb_sigma}
        return OfulConfig(ucb=ucb, label=label), echo
    if name == "ofu_relu":
        _check_keys(block, {"name", "label", "t0", "nu", "lambda", "S", "delta", "ucb_sigma", "fit"}, where)
        S = _get(block, "S", float, math.sqrt(5.0 * k), where)
        t0 = _get(block, "t0", int, 20, where)
        nu = _get(block, "nu", float, 0.0, where)
        fit = _parse_fit(block.get("fit"), where)
        ucb = UcbConfig(sigma=ucb_sigma, S=S, delta=delta, lam=lam)
        cfg = OfuReluConfig(t0=t0, nu=nu, ucb=ucb, fit=fit, label=label)
        echo = {
            "name": name,
            "label": label,
            "t0": t0,
            "nu": nu,
            "lambda": lam,
            "S": S,
            "delta": delta,
            "ucb_sigma": ucb_sigma,
            "fit": _fit_echo(fit),
        }
        return cfg, echo
    if name == "ofu_relu_plus":
        _check_keys(
            block,
            {
                "name",
                "label",
                "nu0",
                "T1",
                "a",
                "b",
                "C1",
                "C2",
                "practical_override",
                "lambda",
                "S",
                "delta",
                "ucb_sigma",
                "fit",
            },
            where,
        )
        S = _get(block, "S", float, math.sqrt(5.0 * k), where)
        nu0 = _get(block, "nu0", float, 1.0, where)
        T1 = _get(block, "T1", int, 10, where)
        a = _get(block, "a", float, 2.0, where)
        b = _get(block, "b", float, 2.0 ** (1.0 / 32.0), where)
        C1 = _get(block, "C1", float, 1.0, where)
        C2 = _get(block, "C2", float, 1.0, where)
        override = block.get("practical_override")
        if override is not None:
            if not isinstance(override, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in override
            ):
                raise ConfigError(f"'practical_override' in {where} must be a list of integers")
            override = tuple(override)
        fit = _parse_fit(block.get("fit"), where)
        ucb = UcbConfig(sigma=ucb_sigma, S=S, delta=delta, lam=lam)
        # schedule sigma is the environment noise level, not the UCB one
        sched = BoundParams(k=k, d=d, sigma=sigma, delta=delta, T=float(T), C1=C1, C2=C2)
        cfg = OfuReluPlusConfig(
            nu0=nu0, T1=T1, a=a, b=b, schedule=sched, ucb=ucb, fit=fit, practical_override=override, label=label
        )
        echo = {
            "name": name,
            "label": label,
            "nu0": nu0,
            "T1": T1,
            "a": a,
            "b": b,
            "C1": C1,
            "C2": C2,
            "practical_override": list(override) if override is not None else None,
            "lambda": lam,
            "S": S,
            "delta": delta,
            "ucb_sigma": ucb_sigma,
            "fit": _fit_echo(fit),
        }
        return cfg, echo
    raise ConfigError(f"unknown algorithm name {name!r} in {where}")


def parse_experiment_config(raw: dict, *, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"k", "d", "T", "trials", "arms_per_round", "sigma", "alpha0", "seed", "algorithms", "out_dir"}
    _check_keys(raw, allowed, "config")
    where = "config"
    k = _get(raw, "k", int, None, where, required=True)
    d = _get(raw, "d", int, None, where, required=True)
    T = _get(raw, "T", int, None, where, required=True)
    trials = _get(raw, "trials", int, None, where, required=True)
    m = _get(raw, "arms_per_round", int, None, where, required=True)
    sigma = _get(raw, "sigma", float, 0.1, where)
    alpha0 = _get(raw, "alpha0", float, 0.0, where)
    seed = _get(raw, "seed", int, 0, where)
    out_dir = _get(raw, "out_dir", str, "results", where)
    if seed_override is not None:
        seed = seed_override
    if out_override is not None:
        out_dir = out_override
    if k < 1 or d < 2 or T < 1 or m < 1:
        raise ConfigError("k, d, T and arms_per_round must be positive (d at least 2)")
    if trials < 2:
        raise ConfigError("trials must be at least 2 (confidence intervals need two runs)")
    if sigma < 0.0 or alpha0 < 0.0 or seed < 0:
        raise ConfigError("sigma, alpha0 and seed must be nonnegative")
    blocks = raw.get("algorithms")
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("'algorithms' must be a nonempty list")
    algos, echoes = [], []
    for i, blk in enumerate(blocks):
        try:
            cfg, echo = _parse_algorithm(blk, i, k, d, T, sigma)
        except ValueError as exc:  # invariant violations from the dataclasses
            raise ConfigError(f"algorithms[{i}]: {exc}") from exc
        algos.append(cfg)
        echoes.append(echo)
    labels = [a.label for a in algos]
    if len(set(labels)) != len(labels):
        raise ConfigError("algorithm labels must be unique (set 'label' to disambiguate)")
    echo = {
        "k": k,
        "d": d,
        "T": T,
        "trials": trials,
        "arms_per_round": m,
        "sigma": sigma,
        "alpha0": alpha0,
        "seed": seed,
        "out_dir": out_dir,
        "algorithms": echoes,
    }
    return ExperimentConfig(
        k=k,
        d=d,
        T=T,
        trials=trials,
        arms_per_round=m,
        sigma=sigma,
        alpha0=alpha0,
        seed=seed,
        algorithms=tuple(algos),
        out_dir=out_dir,
        echo=echo,
    )


def _instance_for_trial(cfg: ExperimentConfig, trial: int):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0)))
    inst = gen_instance(cfg.k, cfg.d, cfg.alpha0, cfg.sigma, rng)
    return replace(inst, seed=trial)  # tag with the trial index for traceability


def _run_cell(args: tuple[ExperimentConfig, int, int]) -> tuple[int, int, TrialTrace]:
    cfg, algo_idx, trial = args
    inst = _instance_for_trial(cfg, trial)
    env_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 1)))
    trace = run_trial(inst, cfg.algorithms[algo_idx], cfg.T, cfg.arms_per_round, env_rng, trial_seed=trial)
    return algo_idx, trial, trace


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[TrialTrace], list[AggregateResult]]:
    """Run every (algorithm, trial) cell; results are independent of jobs.

    The same trial index gives the same instance, arm sets and noise stream
    to every algorithm (common random numbers), so curves are directly
    comparable.
    """
    cells = [(cfg, a, t) for a in range(len(cfg.algorithms)) for t in range(cfg.trials)]
    if jobs <= 1:
        results = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells))
    results.sort(key=lambda r: (r[0], r[1]))
    traces = [tr for _, _, tr in results]
    n = cfg.trials
    aggs = [aggregate(traces[a * n : (a + 1) * n]) for a in range(len(cfg.algorithms))]
    return traces, aggs


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    cfg = parse_experiment_config(raw, seed_override=args.seed, out_override=args.out)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    os.makedirs(cfg.out_dir, exist_ok=True)
    traces, aggs = run_experiment(cfg, jobs)
    export_csv(traces, os.path.join(cfg.out_dir, "traces.csv"))
    export_csv(aggs, os.path.join(cfg.out_dir, "aggregate.csv"))
    emit_svg(aggs, os.path.join(cfg.out_dir, "regret.svg"))
    write_summary(aggs, cfg.echo, os.path.join(cfg.out_dir, "summary.json"))
    for agg in aggs:
        print(
            f"{agg.algorithm}: final mean cumulative regret "
            f"{agg.mean_cum_regret[-1]:.6g} ± {agg.ci_half[-1]:.6g} over {agg.n_trials} trials"
        )
    print(f"wrote traces.csv, aggregate.csv, regret.svg, summary.json to {cfg.out_dir}")
    return 0


def cmd_estimate(args) -> int:
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, {"k", "d", "sigma", "alpha0", "seed", "sample_sizes", "delta", "fit"}, "config")
    where = "config"
    k = _get(raw, "k", int, None, where, required=True)
    d = _get(raw, "d", int, None, where, required=True)
    sigma = _get(raw, "sigma", float, 0.1, where)
    alpha0 = _get(raw, "alpha0", float, 0.0, where)
    seed = _get(raw, "seed", int, 0, where)
    delta = _get(raw, "delta", float, 0.05, where)
    sizes = raw.get("sample_sizes", [20, 100, 500])
    if not isinstance(sizes, list) or not sizes or not all(isinstance(n, int) and n >= 1 for n in sizes):
        raise ConfigError("'sample_sizes' must be a nonempty list of positive integers")
    if args.seed is not None:
        seed = args.seed
    if k < 1 or d < 2 or sigma < 0.0 or alpha0 < 0.0 or seed < 0 or not 0.0 < delta < 1.0:
        raise ConfigError("invalid estimate parameters (need k >= 1, d >= 2, sigma >= 0, delta in (0,1))")
    fit = _parse_fit(raw.get("fit"), where)
    inst = gen_instance(k, d, alpha0, sigma, np.random.default_rng(np.random.SeedSequence((seed, 0, 0))))
    data_rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 1)))
    for n in sizes:
        xs = sample_arms(n, d, data_rng).arms
        ys = eval_f_batch(inst.truth, xs) + sigma * data_rng.standard_normal(n)
        data = [Sample(x=xs[i], y=float(ys[i])) for i in range(n)]
        est = fit_erm(data, k, fit)
        res = match_neurons(est, inst.truth)
        p = BoundParams(k=k, d=d, sigma=sigma, delta=delta, T=float(max(n, 3)))
        zeta = zeta_bound(n, p)
        alpha = alpha_bound(zeta, p)
        print(f"n={n}")
        for i in range(k):
            sgn = "+" if res.signs[i] > 0 else "-"
            print(f"  neuron {i}: error {res.errors[i]:.12g} (sign {sgn})")
        print(f"  mean_error {res.errors.mean():.12g} max_error {res.max_error:.12g}")
        print(f"  zeta {zeta:.12g} alpha {alpha:.12g}")
    return 0


def cmd_check_bounds(args) -> int:
    if not all(map(math.isfinite, (args.sigma, args.delta, args.nu, args.C1, args.C2))):
        raise ConfigError("sigma, delta, nu, C1 and C2 must be finite")
    if args.k < 1 or args.d < 2:
        raise ConfigError("need k >= 1 and d >= 2")
    if not 0.0 < args.delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if args.sigma < 0.0:
        raise ConfigError("sigma must be nonnegative")
    if args.nu <= 0.0:
        raise ConfigError("nu must be positive")
    if args.n < 1:
        raise ConfigError("n must be at least 1")
    p = BoundParams(k=args.k, d=args.d, sigma=args.sigma, delta=args.delta, T=float(args.T), C1=args.C1, C2=args.C2)
    zeta = zeta_bound(args.n, p)
    alpha = alpha_bound(zeta, p)
    t0 = t0_schedule(args.nu, p)
    print(f"zeta {zeta:.12g}")
    print(f"alpha {alpha:.12g}")
    print(f"t0 {t0:.12g}")
    if args.d >= 3:
        for eps in (0.001, 0.002, 0.003):
            try:
                hv = h_bound(0.0, eps, args.k, args.d)
                print(f"h(eta=0, eps={eps:g}) {hv:.12g}")
            except BoundVacuousError:
                print(f"h(eta=0, eps={eps:g}) vacuous (nonpositive denominator)")
    else:
        print("h unsupported for d < 3")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relu-bandits", description="ReLU bandit simulator and bound checker")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a multi-trial regret experiment from a JSON config")
    sim.add_argument("--config", required=True, help="path to the experiment JSON")
    sim.add_argument("--out", default=None, help="output directory (overrides the config)")
    sim.add_argument("--jobs", type=int, default=None, help="parallel worker count (default: cpu count)")
    sim.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="fit the model on synthetic samples and report errors vs bounds")
    est.add_argument("--config", required=True, help="path to the estimate JSON")
    est.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    est.set_defaults(func=cmd_estimate)

    chk = sub.add_parser("check-bounds", help="evaluate the theory bounds for given parameters")
    chk.add_argument("--k", type=int, required=True)
    chk.add_argument("--d", type=int, required=True)
    chk.add_argument("--sigma", type=float, default=0.1)
    chk.add_argument("--delta", type=float, default=0.05)
    chk.add_argument("--T", type=int, default=1000)
    chk.add_argument("--nu", type=float, default=0.1)
    chk.add_argument("--n", type=int, default=100)
    chk.add_argument("--C1", type=float, default=1.0)
    chk.add_argument("--C2", type=float, default=1.0)
    chk.set_defaults(func=cmd_check_bounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; keep its code
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
