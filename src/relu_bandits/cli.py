"""Command-line interface: simulate, estimate.

Config files are strict JSON: unknown keys are rejected with a field-level
message and exit code 2, so typos cannot silently fall back to defaults.
``simulate`` and ``estimate`` parse and check their input, then draw through
the harness, which derives every random stream from the master seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .agents import AgentConfig, OfulConfig, OfuReluConfig, OfuReluPlusConfig, RandomConfig, build_batch_grid
from .errors import _fits_float, _is_int, _require
from .estimation import FitConfig, alpha_bound, fit_erm, match_neurons, zeta_bound
from .harness import ExperimentConfig, _check_instance, _stream, gen_instance, run_experiment, sample_arms
from .linear_ucb import UcbConfig
from .relu_model import eval_f_batch
from .reporting import emit_svg, export_csv, write_summary


REQUIRED = object()  # table default of a key the block must set


def _ucb_table(s_factor: float) -> dict:
    """The UCB keys every linear-UCB algorithm shares; S defaults to sqrt(s_factor * k)."""
    return {
        "lambda": (float, 1.0),
        "S": (float, lambda k, T, sigma: math.sqrt(s_factor * k)),
        "delta": (float, lambda k, T, sigma: 1.0 / math.sqrt(T) if T >= 2 else 0.5),
        "ucb_sigma": (float, lambda k, T, sigma: sigma),
    }


# One table per JSON block: key -> (kind, default).  A kind is int, float,
# str, list or a nested table; a callable default is evaluated at the
# checked (k, T, sigma).  ``_parse`` resolves a block against its table, and
# the result is both what the objects are built from and the echo.
FIT = {f.name: (type(f.default), f.default) for f in fields(FitConfig)}
INSTANCE = {
    "k": (int, REQUIRED), "d": (int, REQUIRED), "sigma": (float, 0.1), "alpha0": (float, 0.0), "seed": (int, 0),
}
EXPERIMENT = {
    **INSTANCE,
    "T": (int, REQUIRED),
    "trials": (int, REQUIRED),
    "arms_per_round": (int, REQUIRED),
    "out_dir": (str, "results"),
    "algorithms": (list, REQUIRED),
}
ESTIMATE = {**INSTANCE, "sample_sizes": (list, [20, 100, 500]), "delta": (float, 0.05), "fit": (FIT, None)}
ALGORITHMS = {
    "random": {},
    "oful": _ucb_table(1.0),
    "ofu_relu": {"t0": (int, 20), "nu": (float, 0.0), **_ucb_table(5.0), "fit": (FIT, None)},
    "ofu_relu_plus": {
        "nu0": (float, 1.0),
        "T1": (int, 10),
        "a": (float, 2.0),
        "b": (float, 2.0 ** (1.0 / 32.0)),
        "C1": (float, 1.0),
        "C2": (float, 1.0),
        "practical_override": (list, None),
        **_ucb_table(5.0),
        "fit": (FIT, None),
    },
}


def _value(v, kind, key: str, where: str):
    """Check the kind of a string or list value; take an integer as a float, and leave numbers to ``_require``."""
    if kind is float and _is_int(v) and _fits_float(v):
        return float(v)
    if kind is str and not isinstance(v, str):
        raise ValueError(f"key '{key}' in {where} must be a string")
    if kind is list and not isinstance(v, list):
        raise ValueError(f"key '{key}' in {where} must be a list")
    return v


def _parse(block, table: dict, where: str, ctx: tuple = ()) -> dict:
    """Resolve a JSON block against its table: unknown keys, types, defaults.

    An explicit null counts as left out where the default is None; a nested
    table left out resolves to its own defaults.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        v = block.get(key)
        if key in block and not (v is None and default is None):
            v = _value(v, kind, key, where)
        elif default is REQUIRED:
            raise ValueError(f"missing required key '{key}' in {where}")
        else:
            v = default(*ctx) if callable(default) else default
        if isinstance(kind, dict):
            v = _parse({} if v is None else v, kind, f"{where}.{key}", ctx)
        out[key] = v
    return out


def _parse_algorithm(block, where: str, ctx: tuple) -> dict:
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object")
    if "name" not in block:
        raise ValueError(f"missing required key 'name' in {where}")
    name = block["name"]
    if not (isinstance(name, str) and name in ALGORITHMS):
        raise ValueError(f"unknown algorithm name {name!r} in {where}")
    return _parse(block, {"name": (str, REQUIRED), "label": (str, name), **ALGORITHMS[name]}, where, ctx)


def _fit_config(p: dict, where: str) -> FitConfig:
    """Build a FitConfig from a resolved fit block, naming the block in its range errors."""
    try:
        return FitConfig(**p)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _build_algorithm(p: dict, fit: FitConfig | None, k: int, d: int, T: int) -> AgentConfig:
    if p["name"] == "random":
        return RandomConfig(label=p["label"])
    ucb = UcbConfig(sigma=p["ucb_sigma"], S=p["S"], delta=p["delta"], lam=p["lambda"])
    if p["name"] == "oful":
        return OfulConfig(ucb=ucb, label=p["label"])
    if p["name"] == "ofu_relu":
        return OfuReluConfig(t0=p["t0"], nu=p["nu"], ucb=ucb, fit=fit, label=p["label"])
    cfg = OfuReluPlusConfig(
        nu0=p["nu0"], T1=p["T1"], a=p["a"], b=p["b"], ucb=ucb, fit=fit, C1=p["C1"], C2=p["C2"],
        practical_override=p["practical_override"], label=p["label"],
    )
    grid = build_batch_grid(cfg, k, d, T)  # a bad grid fails here, before any output is written
    if not any(grid.explore_sizes):
        print(f"warning: every exploration window of {p['label']}'s batch grid is empty: "
              f"it never fits and explores at random for all {T} rounds", file=sys.stderr)
    return cfg


def parse_experiment_config(raw: dict, *, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    p = _parse(raw, EXPERIMENT, "config")
    if seed_override is not None:
        p["seed"] = seed_override
    if out_override is not None:
        p["out_dir"] = out_override
    k, d, T, sigma = p["k"], p["d"], p["T"], p["sigma"]
    _check_instance(k, d, p["alpha0"], sigma)
    _require("T", T, 1, integer=True)
    _require("arms_per_round", p["arms_per_round"], 1, integer=True)
    _require("trials", p["trials"], 2, integer=True)  # confidence intervals need two runs
    _require("seed", p["seed"], 0, integer=True)
    if not p["algorithms"]:
        raise ValueError("'algorithms' must be a nonempty list")
    algos, echoes = [], []
    for i, blk in enumerate(p["algorithms"]):
        where = f"algorithms[{i}]"
        echoes.append(_parse_algorithm(blk, where, (k, T, sigma)))
        fit = _fit_config(echoes[-1]["fit"], f"{where}.fit") if "fit" in echoes[-1] else None
        try:
            algos.append(_build_algorithm(echoes[-1], fit, k, d, T))
        except ValueError as exc:  # invariant and grid errors carry no location
            raise ValueError(f"{where}: {exc}") from exc
    labels = [a.label for a in algos]
    if len(set(labels)) != len(labels):
        raise ValueError("algorithm labels must be unique (set 'label' to disambiguate)")
    p["algorithms"] = echoes
    # the top-level keys are ExperimentConfig's fields
    return ExperimentConfig(**{**p, "algorithms": tuple(algos)}, echo=p)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    cfg = parse_experiment_config(raw, seed_override=args.seed, out_override=args.out)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    _require("--jobs", jobs, 1, integer=True)
    made, path = [], os.path.abspath(cfg.out_dir)
    while not os.path.exists(path):  # the directories makedirs makes, innermost first
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(cfg.out_dir, exist_ok=True)  # before the run, so a path that cannot be made fails first
    try:
        traces, aggs = run_experiment(cfg, jobs)
    except BaseException:
        for path in made:  # a failed run leaves no empty directory of its own
            if not os.path.isdir(path) or os.listdir(path):
                break
            os.rmdir(path)
        raise
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
    cfg = _parse(_load_json(args.config), ESTIMATE, "config")
    k, d, sigma, alpha0, delta, sizes = (cfg[key] for key in ("k", "d", "sigma", "alpha0", "delta", "sample_sizes"))
    seed = args.seed if args.seed is not None else cfg["seed"]
    if not sizes:
        raise ValueError("'sample_sizes' must be a nonempty list")
    for i, n in enumerate(sizes):
        _require(f"sample_sizes[{i}]", n, 1, integer=True)
    _check_instance(k, d, alpha0, sigma)
    _require("seed", seed, 0, integer=True)
    _require("delta", delta, 0.0, 1.0, strict=True)
    fit = _fit_config(cfg["fit"], "config.fit")
    bounds = []  # every bound is evaluated, and so checked, before the first draw
    for n in sizes:
        zeta = zeta_bound(n, k, d, sigma, delta)
        bounds.append((zeta, alpha_bound(zeta, k, d)))
    inst = gen_instance(k, d, alpha0, sigma, _stream(seed, 0, 0))
    data_rng = _stream(seed, 0, 1)
    for n, (zeta, alpha) in zip(sizes, bounds):
        xs = sample_arms(n, d, data_rng)
        ys = eval_f_batch(inst.truth, xs) + sigma * data_rng.standard_normal(n)
        est = fit_erm(xs, ys, k, fit)
        res = match_neurons(est, inst.truth)
        print(f"n={n}")
        for i in range(k):
            sgn = "+" if res.signs[i] > 0 else "-"
            print(f"  neuron {i}: error {res.errors[i]:.12g} (sign {sgn})")
        print(f"  mean_error {res.errors.mean():.12g} max_error {res.max_error:.12g}")
        print(f"  zeta {zeta:.12g} alpha {alpha:.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relu-bandits", description="ReLU bandit simulator and estimator")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
