"""End-to-end acceptance gate.

Each test prints one CRITERION line (PASS or FAIL with the measured numbers)
so a plain ``pytest -v`` run doubles as the acceptance report.  The two
experiment reproductions run the shipped configs at full scale and
criterion 12 runs to T = 4000, so this module dominates the suite's
runtime; they are marked ``slow``, and ``pytest -m "not slow"`` leaves them
out.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from relu_bandits import (
    BoundVacuousError,
    BoundParams,
    FitConfig,
    Instance,
    OfuReluPlusConfig,
    ReluNetwork,
    UcbConfig,
    eval_f_batch,
    gen_instance,
    h_bound,
    match_neurons,
    sample_arms,
    t0_schedule,
    zeta_bound,
)
from relu_bandits.agents import OfuReluAgent, build_batch_grid
from relu_bandits.linear_ucb import LinearUcbState, ridge_update, ucb_select
from relu_bandits.relu_model import exact_argmax_2d, margin_mask, sign_robust_features_batch
from relu_bandits.cli import parse_experiment_config, run_experiment

from oracles import (
    exhaustive_match,
    gap_of,
    grid_argmax_2d,
    mp_alpha,
    mp_h,
    mp_zeta,
    sign_corrected_parameter,
    strip_integral_grid_min,
)
from relu_bandits import alpha_bound

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def run_shipped(name):
    raw = json.loads((CONFIGS / name).read_text())
    cfg = parse_experiment_config(raw, seed_override=None, out_override=None)
    start = time.time()
    _, aggs = run_experiment(cfg, jobs=1)
    return cfg, {a.algorithm: a for a in aggs}, time.time() - start


def ordinal_detail(aggs, elapsed):
    relu, oful = aggs["ofu_relu"], aggs["oful"]
    r_mean, r_ci = relu.mean_cum_regret[-1], relu.ci_half[-1]
    o_mean, o_ci = oful.mean_cum_regret[-1], oful.ci_half[-1]
    ordered = r_mean < o_mean
    separated = r_mean + r_ci < o_mean - o_ci
    early = relu.mean_cum_regret[19] / 20.0
    late = (relu.mean_cum_regret[999] - relu.mean_cum_regret[498]) / 501.0
    plateau = late < 0.2 * early
    ok = ordered and separated and plateau
    detail = (
        f"ofu_relu {r_mean:.1f}±{r_ci:.1f} vs oful {o_mean:.1f}±{o_ci:.1f}, "
        f"CI gap {(o_mean - o_ci) - (r_mean + r_ci):.1f}, "
        f"plateau ratio {late / early:.3f} < 0.2, {elapsed:.0f}s"
    )
    return ok, detail


@pytest.fixture(scope="module")
def fig2a():
    return run_shipped("fig2a.json")


@pytest.fixture(scope="module")
def fig2b():
    return run_shipped("fig2b.json")


@pytest.mark.slow
class TestCriterion1Fig2a:
    def test_protocol_pinned(self, fig2a):
        cfg, _, _ = fig2a
        assert (cfg.k, cfg.d, cfg.T, cfg.trials, cfg.arms_per_round) == (3, 2, 1000, 50, 1000)
        assert cfg.sigma == pytest.approx(0.1)  # sigma^2 = 0.01
        relu_cfg = next(a for a in cfg.algorithms if a.label == "ofu_relu")
        assert relu_cfg.t0 == 20

    def test_ordinal_and_plateau(self, fig2a, capsys):
        _, aggs, elapsed = fig2a
        ok, detail = ordinal_detail(aggs, elapsed)
        report(capsys, 1, ok, detail)


@pytest.mark.slow
class TestCriterion2Fig2b:
    def test_protocol_pinned(self, fig2b):
        cfg, _, _ = fig2b
        assert (cfg.k, cfg.d, cfg.T, cfg.trials, cfg.arms_per_round) == (10, 2, 1000, 50, 1000)
        assert cfg.sigma == pytest.approx(0.1)

    def test_ordinal_and_plateau(self, fig2b, capsys):
        _, aggs, elapsed = fig2b
        ok, detail = ordinal_detail(aggs, elapsed)
        report(capsys, 2, ok, detail)


class TestCriterion3LinearizationIdentity:
    def test_thousand_randomized_cases(self, capsys):
        rng = np.random.default_rng(123)
        failures = 0
        worst = 0.0
        arms_checked = 0
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            w = rng.standard_normal((k, d))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            truth = ReluNetwork(w)
            nu = float(rng.uniform(0.1, 1.0))
            signs = rng.choice([-1.0, 1.0], size=k)
            # perturb each row by at most nu/8 along a unit direction, so the
            # renormalized estimate stays within nu/4 (< nu/2) of signs * truth
            dirs = rng.standard_normal((k, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = nu * rng.uniform(0.0, 0.125, size=(k, 1))
            rows = signs[:, None] * w + radii * dirs
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            est = ReluNetwork(rows)
            assert np.linalg.norm(rows - signs[:, None] * w, axis=1).max() <= nu / 2
            kept = np.empty((0, d))
            for _ in range(50):
                arms = sample_arms(200, d, rng)
                kept = arms[margin_mask(arms @ est.weights.T, nu / 2.0)]
                if len(kept):
                    break
            if not len(kept):
                continue
            theta = sign_corrected_parameter(truth, est, nu)
            resid = np.abs(
                sign_robust_features_batch(kept, kept @ est.weights.T) @ theta - eval_f_batch(truth, kept)
            ).max(initial=0.0)
            worst = max(worst, float(resid))
            arms_checked += len(kept)
            if resid > 1e-9:
                failures += 1
        ok = failures == 0 and arms_checked > 10_000
        report(
            capsys, 3,
            ok,
            f"{failures} failures over 1000 cases ({arms_checked} filtered arms), max residual {worst:.2e}",
        )


class TestCriterion4ExactArgmax:
    def test_hundred_instances(self, capsys):
        rng = np.random.default_rng(321)
        min_gap = math.inf
        grid_losses = 0
        for i in range(100):
            k = (2, 3, 5)[i % 3]
            inst = gen_instance(k, 2, 0.2, 0.1, rng)
            xstar, fstar = exact_argmax_2d(inst.truth)
            min_gap = min(min_gap, gap_of(inst.truth, xstar))
            _, grid_best = grid_argmax_2d(inst.truth.weights)
            if fstar < grid_best - 1e-12:
                grid_losses += 1
        ok = min_gap > 1e-6 and grid_losses == 0
        report(
            capsys, 4,
            ok,
            f"min gap {min_gap:.3e} > 1e-6, oracle >= 1e5-point grid in {100 - grid_losses}/100 cases",
        )


class TestCriterion5StripIntegral:
    def test_grid_minimum_dominates(self, capsys):
        details = []
        ok = True
        for eps in (0.1, 0.5, 1.0):
            got = strip_integral_grid_min(eps)
            floor = eps * eps / 8.0
            ok = ok and got >= floor - 1e-9
            details.append(f"eps={eps}: {got:.6g} >= {floor:.6g}")
        report(capsys, 5, ok, "; ".join(details))


class TestCriterion6BoundEvaluators:
    def test_spot_values_and_monotonicity(self, capsys):
        # spot values against an independent high-precision evaluation
        p_zeta = BoundParams(k=1, d=1, sigma=1.0, delta=4.0 / math.e)
        z_impl = zeta_bound(4096, p_zeta)
        z_orac = mp_zeta(4096, 1, 1, 1.0, 4.0 / math.e)
        p_alpha = BoundParams(k=1, d=1, sigma=1.0, delta=0.5)
        a_impl = alpha_bound(0.5, p_alpha)
        a_orac = mp_alpha(0.5, 1, 1)
        zeta_ok = abs(z_impl - z_orac) <= 5e-4 * abs(z_orac)  # 4 significant digits
        alpha_ok = abs(a_impl - a_orac) <= 5e-4 * abs(a_orac)
        # at (eta=0, eps=0.01, k=1, d=3) the bound's denominator is negative,
        # in both the implementation and the high-precision oracle; nearby
        # eps where it is positive must agree to 4 significant digits
        h_vac_oracle = mp_h(0.0, 0.01, 1, 3) is None
        try:
            h_bound(0.0, 0.01, 1, 3)
            h_vac_impl = False
        except BoundVacuousError:
            h_vac_impl = True
        h_ok = h_vac_impl and h_vac_oracle
        for eps in (0.001, 0.002, 0.003):
            want = mp_h(0.0, eps, 1, 3)
            h_ok = h_ok and want is not None and abs(h_bound(0.0, eps, 1, 3) - want) <= 5e-4 * want
        # monotonicity grids
        zeta_mono = all(
            zeta_bound(2 * n, p_zeta) < zeta_bound(n, p_zeta) for n in (8, 32, 128, 512, 2048)
        )
        p_t0 = BoundParams(k=2, d=3, sigma=0.5, delta=0.1)
        nus = (0.05, 0.1, 0.2, 0.4, 0.8)
        t0_mono = all(
            t0_schedule(a, p_t0, 1000.0) >= t0_schedule(b, p_t0, 1000.0) for a, b in zip(nus, nus[1:])
        )
        ok = zeta_ok and alpha_ok and h_ok and zeta_mono and t0_mono
        report(
            capsys, 6,
            ok,
            f"zeta {z_impl:.6f} = oracle {z_orac:.6f}; alpha {a_impl:.4f} = oracle {a_orac:.4f}; "
            f"h vacuous at eps=0.01 in impl and oracle, 4-digit match on eps grid; "
            f"zeta/t0 monotone: {zeta_mono}/{t0_mono}",
        )


class TestCriterion7MatchExactness:
    def test_two_hundred_cases(self, capsys):
        rng = np.random.default_rng(777)
        worst = 0.0
        mismatches = 0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            d = int(rng.integers(2, 6))
            w1 = rng.standard_normal((k, d))
            w1 /= np.linalg.norm(w1, axis=1, keepdims=True)
            w2 = rng.standard_normal((k, d))
            w2 /= np.linalg.norm(w2, axis=1, keepdims=True)
            res = match_neurons(ReluNetwork(w2), ReluNetwork(w1))
            cost = float((res.errors**2).sum())
            brute, _, _ = exhaustive_match(w2, w1)
            gap = abs(cost - brute)
            worst = max(worst, gap)
            if gap > 1e-10 * max(1.0, brute):
                mismatches += 1
        report(
            capsys, 7,
            mismatches == 0,
            f"{mismatches} mismatches over 200 cases (k <= 4), max |cost difference| {worst:.2e}",
        )


class TestCriterion8OfulSanity:
    def test_regret_doubling_ratio(self, capsys):
        cfg = UcbConfig(sigma=0.1, S=1.0, delta=1.0 / math.sqrt(4000.0), lam=1.0)
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            arms = rng.standard_normal((50, 4))
            arms /= np.linalg.norm(arms, axis=1, keepdims=True)
            theta = rng.standard_normal(4)
            theta /= np.linalg.norm(theta)
            vals = arms @ theta
            best = vals.max()
            state = LinearUcbState(4, 1.0)
            cum, r1000 = 0.0, 0.0
            for t in range(1, 4001):
                idx = ucb_select(state, cfg, arms)
                ridge_update(state, arms[idx], vals[idx] + 0.1 * rng.standard_normal())
                cum += best - vals[idx]
                if t == 1000:
                    r1000 = cum
            ratios.append(cum / r1000)
        mean_ratio = float(np.mean(ratios))
        report(
            capsys, 8,
            mean_ratio <= 2.2,
            f"mean R_4000/R_1000 = {mean_ratio:.3f} <= 2.2 over 20 seeds (max {max(ratios):.3f})",
        )


class TestCriterion9PlusStructure:
    def _cfg(self, override, ucb, T1=10, a=2.0, b=2.0):
        return OfuReluPlusConfig(
            nu0=1.0,
            T1=T1,
            a=a,
            b=b,
            ucb=ucb,
            fit=FitConfig(restarts=3, max_iters=200, seed=0),
            practical_override=override,
        )

    def test_grid_replay_and_exponent(self, capsys):
        ucb = UcbConfig(sigma=0.1, S=math.sqrt(5.0), delta=0.1, lam=1.0)
        grid = build_batch_grid(self._cfg((5, 5, 5), ucb), 1, 2, 70)
        grid_ok = grid.M == 3 and grid.boundaries == (0, 10, 30, 70)
        ratios = [grid.nus[i + 1] / grid.nus[i] for i in range(grid.M - 1)]
        geom_ok = all(abs(r - 0.5) < 1e-12 for r in ratios) and abs(grid.nus[0] - 0.5) < 1e-12

        # per-round replay equality on a T = 200 run: after every round the
        # ridge equals a replay of the rounds it holds under the current
        # estimate; a later window's exploration rounds wait for the refit
        # that ends the window, so until then it holds the rounds before them
        T = 200
        rng = np.random.default_rng(55)
        inst = gen_instance(1, 2, 0.0, 0.1, rng)
        agent = OfuReluAgent(1, 2, T, self._cfg((6, 3, 3, 3, 3), ucb))
        starts, sizes = agent.grid.boundaries, agent.grid.explore_sizes
        waiting = {start + j for start, size in zip(starts, sizes) for j in range(1, size)}  # all but a window's last
        arms_rng, noise_rng, agent_rng = np.random.default_rng(56).spawn(3)
        max_dev, held = 0.0, 0
        for t in range(1, T + 1):
            arms = sample_arms(30, 2, arms_rng)
            idx = agent.select_arm(arms, agent_rng)
            y = float(eval_f_batch(inst.truth, arms)[idx]) + 0.1 * float(noise_rng.standard_normal())
            agent.observe(y)
            if agent.estimate is None:
                # before the first refit nothing may have entered the ridge
                if agent.ridge.count != 0:
                    max_dev = math.inf
                continue
            held = held if t in waiting else t
            if agent.ridge.count != held:
                max_dev = math.inf
            replay = LinearUcbState(4, ucb.lam)
            X, rewards = agent.history()
            for x, reward in zip(X[:held], rewards[:held]):
                feat = sign_robust_features_batch(x[None, :], x[None, :] @ agent.estimate.weights.T)[0]
                ridge_update(replay, feat, reward)
            dev = max(
                float(np.abs(agent.ridge.gram - replay.gram).max()),
                float(np.abs(agent.ridge.moment - replay.moment).max()),
                float(np.abs(agent.ridge.gram_inv @ agent.ridge.moment - replay.gram_inv @ replay.moment).max()),
            )
            max_dev = max(max_dev, dev)
        replay_ok = max_dev <= 1e-8

        exponent = 8.0 * math.log(2.0 ** (1.0 / 32.0)) / math.log(2.0)
        exp_ok = abs(exponent - 0.25) < 1e-12
        ok = grid_ok and geom_ok and replay_ok and exp_ok
        report(
            capsys, 9,
            ok,
            f"grid (0,10,30,70) M=3: {grid_ok}; nu geometric: {geom_ok}; "
            f"replay max deviation {max_dev:.2e} <= 1e-8 over {T} rounds; "
            f"8*log(2^(1/32))/log(2) = {exponent:.12f}",
        )


class TestCriterion10Determinism:
    def test_jobs_invariant_bytes(self, tmp_path, capsys):
        config = {
            "k": 2,
            "d": 2,
            "T": 40,
            "trials": 3,
            "arms_per_round": 12,
            "sigma": 0.1,
            "alpha0": 0.2,
            "seed": 11,
            "algorithms": [
                {"name": "random"},
                {"name": "oful"},
                {"name": "ofu_relu", "t0": 6},
                {"name": "ofu_relu_plus", "T1": 8, "practical_override": [4, 2, 2]},
            ],
        }
        cfg_path = tmp_path / "determinism.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for jobs, sub in ((1, "a"), (2, "b")):
            out = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", "relu_bandits.cli", "simulate",
                 "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        same = {
            name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("traces.csv", "aggregate.csv", "regret.svg")
        }
        ok = all(same.values())
        report(
            capsys, 10,
            ok,
            "byte-identical across --jobs 1 vs --jobs 2: "
            + ", ".join(f"{k}={v}" for k, v in same.items())
            + " (summary.json excluded: echoes the output path)",
        )


@pytest.mark.slow
class TestCriterion12SqrtTGrowth:
    # frozen before the first run: the fig2a shape with 200 arms per round,
    # fig2a's ofu_relu and oful blocks, T = 4000, 20 trials, master seed 7
    CONFIG = {
        "k": 3, "d": 2, "T": 4000, "trials": 20, "arms_per_round": 200, "sigma": 0.1, "alpha0": 0.9, "seed": 7,
        "algorithms": [{"name": "ofu_relu", "t0": 20, "lambda": 0.01}, {"name": "oful", "lambda": 0.01}],
    }

    def test_post_exploration_regret_grows_like_sqrt_T(self, capsys):
        # quadrupling T after the t0 = 20 exploration rounds should at most
        # double OFU-ReLU's regret (sqrt(4) = 2, with the slack of criterion 8),
        # while misspecified OFUL grows faster
        start = time.time()
        _, aggs = run_experiment(parse_experiment_config(self.CONFIG), jobs=2)
        ratios = {}
        for agg in aggs:
            R = agg.mean_cum_regret
            ratios[agg.algorithm] = (R[3999] - R[19]) / (R[999] - R[19])
        ok = ratios["ofu_relu"] <= 2.2 and ratios["ofu_relu"] < ratios["oful"]
        report(
            capsys, 12,
            ok,
            f"(R(4000) - R(20)) / (R(1000) - R(20)): ofu_relu {ratios['ofu_relu']:.3f} <= 2.2 "
            f"and < oful {ratios['oful']:.3f}; 20 trials, {time.time() - start:.0f}s",
        )
