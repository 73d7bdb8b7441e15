import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import relu_bandits
from relu_bandits import agents, cli, harness, linear_ucb, relu_model, reporting
from relu_bandits.cli import main, parse_experiment_config, run_experiment

from oracles import (
    export_csv_reference,
    points_reference,
    row_sum_reference,
    sample_arms_reference,
    sign_robust_lift_reference,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GRID_RANGE = "algorithms[0]: {given} batch {i}'s {what} out of floating-point range"
T0_RANGE = "algorithms[0]: t0_schedule(nu={nu}, k=1, d=2, sigma=0.1, T=40, C1={C1}, C2=1.0) is out of floating-point range"
HUGE_INT = 10**400  # a JSON integer that float() cannot convert

TINY = {
    "k": 1,
    "d": 2,
    "T": 40,
    "trials": 2,
    "arms_per_round": 8,
    "sigma": 0.1,
    "alpha0": 0.0,
    "seed": 3,
    "algorithms": [
        {"name": "random"},
        {"name": "oful"},
        {"name": "ofu_relu", "t0": 5},
        {"name": "ofu_relu_plus", "T1": 8, "practical_override": [4, 2, 2]},
    ],
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One shared simulate run: (exit code, stdout, out dir)."""
    td = tmp_path_factory.mktemp("tiny")
    cfg = write_config(td / "cfg.json", TINY)
    out = td / "out"
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "1"])
    return code, buf.getvalue(), out


FIT_DEFAULT = {"restarts": 10, "max_iters": 600, "step_size": 0.2, "tol": 1e-09, "seed": 0}

# every algorithm, every top-level and per-algorithm default, `fit` left out
# and partly set, `practical_override` set and left out
ALL_DEFAULTS = {
    "k": 2,
    "d": 3,
    "T": 300,
    "trials": 2,
    "arms_per_round": 5,
    "algorithms": [
        {"name": "random"},
        {"name": "oful"},
        {"name": "ofu_relu"},
        {"name": "ofu_relu", "label": "relu_fit", "t0": 7, "nu": 0.25, "fit": {"restarts": 3, "tol": 1e-6}},
        {"name": "ofu_relu_plus", "T1": 5, "practical_override": [3, 2, 2, 1, 1, 1, 1, 1]},
        {
            "name": "ofu_relu_plus", "label": "plus_sched", "nu0": 0.5, "a": 3, "b": 1.5, "C1": 2, "C2": 0.5,
            "lambda": 0.1, "S": 2, "delta": 0.05, "ucb_sigma": 0.2, "fit": {"seed": 4},
        },
    ],
}

# T = 1 takes the short-horizon delta default
ONE_ROUND = {
    "k": 1, "d": 2, "T": 1, "trials": 2, "arms_per_round": 1, "sigma": 0.0, "alpha0": 0.5, "seed": 9,
    "out_dir": "o", "algorithms": [{"name": "oful", "label": "o1"}],
}

# resolved echoes frozen from the hand-written parser this table replaced
GOLDEN_ECHO = {
    "fig2a": {
        "k": 3, "d": 2, "T": 1000, "trials": 50, "arms_per_round": 1000, "sigma": 0.1, "alpha0": 0.9,
        "seed": 1, "out_dir": "results/fig2a",
        "algorithms": [
            {
                "name": "ofu_relu", "label": "ofu_relu", "t0": 20, "nu": 0.0, "lambda": 0.01,
                "S": 3.872983346207417, "delta": 0.03162277660168379, "ucb_sigma": 0.1, "fit": FIT_DEFAULT,
            },
            {
                "name": "oful", "label": "oful", "lambda": 0.01, "S": 1.7320508075688772,
                "delta": 0.03162277660168379, "ucb_sigma": 0.1,
            },
            {"name": "random", "label": "random"},
        ],
    },
    "fig2b": {
        "k": 10, "d": 2, "T": 1000, "trials": 50, "arms_per_round": 1000, "sigma": 0.1, "alpha0": 0.1,
        "seed": 2, "out_dir": "results/fig2b",
        "algorithms": [
            {
                "name": "ofu_relu", "label": "ofu_relu", "t0": 20, "nu": 0.0, "lambda": 0.01,
                "S": 7.0710678118654755, "delta": 0.03162277660168379, "ucb_sigma": 0.1, "fit": FIT_DEFAULT,
            },
            {
                "name": "oful", "label": "oful", "lambda": 0.01, "S": 3.1622776601683795,
                "delta": 0.03162277660168379, "ucb_sigma": 0.1,
            },
            {"name": "random", "label": "random"},
        ],
    },
    "all_defaults": {
        "k": 2, "d": 3, "T": 300, "trials": 2, "arms_per_round": 5, "sigma": 0.1, "alpha0": 0.0, "seed": 0,
        "out_dir": "results",
        "algorithms": [
            {"name": "random", "label": "random"},
            {
                "name": "oful", "label": "oful", "lambda": 1.0, "S": 1.4142135623730951,
                "delta": 0.05773502691896257, "ucb_sigma": 0.1,
            },
            {
                "name": "ofu_relu", "label": "ofu_relu", "t0": 20, "nu": 0.0, "lambda": 1.0,
                "S": 3.1622776601683795, "delta": 0.05773502691896257, "ucb_sigma": 0.1, "fit": FIT_DEFAULT,
            },
            {
                "name": "ofu_relu", "label": "relu_fit", "t0": 7, "nu": 0.25, "lambda": 1.0,
                "S": 3.1622776601683795, "delta": 0.05773502691896257, "ucb_sigma": 0.1,
                "fit": {"restarts": 3, "max_iters": 600, "step_size": 0.2, "tol": 1e-06, "seed": 0},
            },
            {
                "name": "ofu_relu_plus", "label": "ofu_relu_plus", "nu0": 1.0, "T1": 5, "a": 2.0,
                "b": 1.0218971486541166, "C1": 1.0, "C2": 1.0, "practical_override": [3, 2, 2, 1, 1, 1, 1, 1],
                "lambda": 1.0, "S": 3.1622776601683795, "delta": 0.05773502691896257, "ucb_sigma": 0.1,
                "fit": FIT_DEFAULT,
            },
            {
                "name": "ofu_relu_plus", "label": "plus_sched", "nu0": 0.5, "T1": 10, "a": 3.0, "b": 1.5,
                "C1": 2.0, "C2": 0.5, "practical_override": None, "lambda": 0.1, "S": 2.0, "delta": 0.05,
                "ucb_sigma": 0.2,
                "fit": {"restarts": 10, "max_iters": 600, "step_size": 0.2, "tol": 1e-09, "seed": 4},
            },
        ],
    },
    "one_round": {
        "k": 1, "d": 2, "T": 1, "trials": 2, "arms_per_round": 1, "sigma": 0.0, "alpha0": 0.5, "seed": 9,
        "out_dir": "o",
        "algorithms": [{"name": "oful", "label": "o1", "lambda": 1.0, "S": 1.0, "delta": 0.5, "ucb_sigma": 0.0}],
    },
}


class TestConfigEcho:
    @pytest.mark.parametrize(
        "name,raw",
        [
            ("fig2a", json.loads((CONFIGS / "fig2a.json").read_text())),
            ("fig2b", json.loads((CONFIGS / "fig2b.json").read_text())),
            ("all_defaults", ALL_DEFAULTS),
            ("one_round", ONE_ROUND),
        ],
    )
    def test_echo_matches_golden(self, name, raw):
        echo = parse_experiment_config(raw).echo
        # sorted JSON tells 2 from 2.0 and None from a missing key
        assert json.dumps(echo, sort_keys=True) == json.dumps(GOLDEN_ECHO[name], sort_keys=True)


# the fig2a shape (2kd = 12) with every algorithm, OFU-ReLU+ on a practical grid
DROP_IN = {
    "k": 3,
    "d": 2,
    "T": 70,
    "trials": 2,
    "arms_per_round": 50,
    "sigma": 0.1,
    "alpha0": 0.9,
    "seed": 5,
    "algorithms": [
        {"name": "ofu_relu", "t0": 20, "lambda": 0.01},
        {"name": "oful", "lambda": 0.01},
        {"name": "random"},
        {"name": "ofu_relu_plus", "T1": 10, "practical_override": [10, 10, 10], "lambda": 0.01},
    ],
}


class TestKernelsDropIn:
    def test_reference_kernels_and_writers_write_the_same_artifacts(self, tmp_path, monkeypatch, capsys):
        """The column-loop kernels and writers are drop-ins for their numpy and
        row-by-row forms in ``oracles``: a run with those patched in writes the
        same bytes, on whatever BLAS the run has."""
        cfg = write_config(tmp_path / "cfg.json", DROP_IN)
        names = ("traces.csv", "aggregate.csv", "regret.svg")

        def simulate(out):
            assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
            return {name: (out / name).read_bytes() for name in names}

        shipped = simulate(tmp_path / "shipped")
        for module in (relu_model, linear_ucb):  # relu_model's patch reaches every unit-row sampler
            monkeypatch.setattr(module, "_row_sum", row_sum_reference)
        monkeypatch.setattr(harness, "sample_arms", sample_arms_reference)
        monkeypatch.setattr(agents, "sign_robust_features_batch", sign_robust_lift_reference)
        monkeypatch.setattr(cli, "export_csv", export_csv_reference)
        monkeypatch.setattr(reporting, "_points", points_reference)
        reference = simulate(tmp_path / "reference")
        capsys.readouterr()
        for name in names:
            assert shipped[name] == reference[name], name


class TestSimulate:
    def test_exit_and_outputs(self, tiny_run):
        code, out, outdir = tiny_run
        assert code == 0
        for name in ("traces.csv", "aggregate.csv", "regret.svg", "summary.json"):
            assert (outdir / name).exists()
        for label in ("random", "oful", "ofu_relu", "ofu_relu_plus"):
            assert f"{label}: final mean cumulative regret" in out

    def test_aggregate_covers_all_algorithms(self, tiny_run):
        _, _, outdir = tiny_run
        rows = list(csv.reader((outdir / "aggregate.csv").open()))
        assert {r[0] for r in rows[1:]} == {"random", "oful", "ofu_relu", "ofu_relu_plus"}
        assert len(rows) == 1 + 4 * TINY["T"]

    def test_traces_cover_all_trials(self, tiny_run):
        _, _, outdir = tiny_run
        rows = list(csv.reader((outdir / "traces.csv").open()))
        assert len(rows) == 1 + 4 * TINY["trials"] * TINY["T"]
        assert {r[1] for r in rows[1:]} == {"0", "1"}  # per-trial seed column

    def test_summary_echo_is_fully_resolved(self, tiny_run):
        _, _, outdir = tiny_run
        records = json.loads((outdir / "summary.json").read_text())
        assert len(records) == 4
        echo = records[0]["config_echo"]
        oful = next(b for b in echo["algorithms"] if b["name"] == "oful")
        assert oful["lambda"] == 1.0
        assert oful["S"] == pytest.approx(1.0)  # sqrt(k) for k=1
        assert oful["delta"] == pytest.approx(1.0 / math.sqrt(TINY["T"]))
        relu = next(b for b in echo["algorithms"] if b["name"] == "ofu_relu")
        assert relu["S"] == pytest.approx(math.sqrt(5.0))
        assert relu["fit"]["restarts"] == 10

    def test_seed_override_changes_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, T=15, algorithms=[{"name": "random"}]))
        outs = []
        for seed in (3, 4):
            out = tmp_path / f"out{seed}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "1", "--seed", str(seed)]) == 0
            outs.append((out / "traces.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] != outs[1]

    def test_one_instance_per_trial(self, monkeypatch):
        drawn = []
        gen_instance = harness.gen_instance
        monkeypatch.setattr(harness, "gen_instance", lambda *a: drawn.append(a) or gen_instance(*a))
        cfg = parse_experiment_config(dict(TINY, T=12, algorithms=TINY["algorithms"][:3]))
        traces, aggs = run_experiment(cfg, jobs=1)
        assert len(drawn) == 2  # 3 algorithms x 2 trials, one draw per trial
        assert [(tr.algorithm, tr.seed) for tr in traces] == [
            (a, t) for a in ("random", "oful", "ofu_relu") for t in (0, 1)
        ]
        assert [agg.algorithm for agg in aggs] == ["random", "oful", "ofu_relu"]

    @pytest.mark.parametrize("jobs", [2, 5000])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, jobs):
        # a fake pool that records its size and maps serially: no process starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = parse_experiment_config(dict(TINY, T=12, algorithms=[{"name": "random"}]))
        traces, _ = run_experiment(cfg, jobs=jobs)
        assert sizes == [2]  # 1 algorithm x 2 trials
        serial, _ = run_experiment(cfg, jobs=1)
        assert [tr.chosen.tobytes() for tr in traces] == [tr.chosen.tobytes() for tr in serial]

    def test_unknown_top_key_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, typo_key=1))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_algo_key_exit2(self, tmp_path, capsys):
        bad = dict(TINY, algorithms=[{"name": "random", "t0": 5}])
        cfg = write_config(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "t0" in capsys.readouterr().err

    def test_missing_required_key_exit2(self, tmp_path, capsys):
        partial = {k: v for k, v in TINY.items() if k != "T"}
        cfg = write_config(tmp_path / "cfg.json", partial)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'T'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,key",
        [
            ({"sigma": math.nan}, "sigma"),
            ({"alpha0": math.inf}, "alpha0"),
            ({"algorithms": [{"name": "oful", "lambda": math.nan}]}, "lambda"),
            ({"algorithms": [{"name": "ofu_relu", "fit": {"step_size": -math.inf}}]}, "step_size"),
            ({"sigma": HUGE_INT}, "sigma"),
            ({"algorithms": [{"name": "oful", "lambda": HUGE_INT}]}, "lambda"),
        ],
    )
    def test_nonfinite_number_exit2(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, **override))
        raw = (tmp_path / "cfg.json").read_text()
        # json writes the non-standard literals, and an integer beyond any float as its digits
        assert "NaN" in raw or "Infinity" in raw or str(HUGE_INT) in raw
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a number in " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["k", "d", "T", "trials", "arms_per_round"])
    def test_integer_out_of_float_range_exit2(self, tmp_path, capsys, key):
        # checked as the config is parsed, before any draw, allocation or output directory
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, **{key: HUGE_INT}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{key} must be an integer in [" in captured.err
        assert captured.err.endswith(f"got {HUGE_INT}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block,field",
        [
            ({"name": "ofu_relu", "fit": {"restarts": "ten"}}, "algorithms[0].fit"),
            ({"name": "ofu_relu", "fit": {"bogus": 1}}, "algorithms[0].fit"),
            ({"name": "ofu_relu_plus", "fit": {"restarts": 0}}, "algorithms[0].fit: restarts"),
            ({"name": "ofu_relu_plus", "T1": 50}, "T1"),
            ({"name": "ofu_relu_plus", "T1": 8, "practical_override": [4]}, "practical_override"),
            ({"name": "ofu_relu_plus", "T1": 8, "nu0": 1e-300}, T0_RANGE.format(nu="1e-300", C1="1.0")),  # nu**8 underflows to 0
            ({"name": "ofu_relu_plus", "T1": 8, "b": 1e300}, GRID_RANGE.format(given="a=2.0 and b=1e+300 put", i=2, what="gap divisor b^2")),
            ({"name": "ofu_relu_plus", "T1": 8, "a": 1e308}, GRID_RANGE.format(given="a=1e+308 puts", i=1, what="boundary (a^1 - 1) T1")),
            ({"name": "ofu_relu_plus", "T1": 8, "C1": 1e308}, T0_RANGE.format(nu="1.0", C1="1e+308")),  # t0(nu) is inf
            ({"name": "oful", "lambda": 1e-320}, "algorithms[0]: lambda"),  # 1/lambda is inf
            ({"name": "ofu_relu", "lambda": 1e-16}, "algorithms[0]: lambda"),  # below sqrt(eps)
            ({"name": "ofu_relu", "delta": 1e-320}, "algorithms[0]: delta"),  # 1/delta is inf
            ({"name": "ofu_relu_plus", "T1": 8, "C1": 0}, "algorithms[0]: C1 must be a number in (0, inf), got 0.0"),
            ({"name": "ofu_relu_plus", "T1": 8, "C2": -1.0}, "algorithms[0]: C2 must be a number in (0, inf), got -1.0"),
            ({"name": "ofu_relu_plus", "T1": 8, "C1": math.nan}, "algorithms[0]: C1 must be a number in (0, inf), got nan"),
            ({"name": "ofu_relu_plus", "T1": 8, "C2": math.nan}, "algorithms[0]: C2 must be a number in (0, inf), got nan"),
        ],
        ids=[
            "fit-type", "fit-unknown-key", "fit-range", "T-below-T1", "override-too-short",
            "nu0-underflow", "b-overflow", "a-overflow", "C1-overflow", "lambda-reciprocal", "lambda-tiny",
            "delta-reciprocal", "C1-zero", "C2-negative", "C1-nan", "C2-nan",
        ],
    )
    def test_bad_block_exit2_before_output(self, tmp_path, capsys, block, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, algorithms=[block]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert err.count("algorithms[0]") == 1  # the location is named once
        assert not (tmp_path / "o").exists()

    def test_a_near_one_exit2_promptly(self, tmp_path, capsys):
        # the grid is one batch per round (1000 of them), not the 4.6e8 that
        # log(T/T1 + 1) / log a counts, so the short override fails at once
        block = {"name": "ofu_relu_plus", "a": 1.00000001, "practical_override": [10]}
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, T=1000, algorithms=[block]))
        start = time.perf_counter()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert time.perf_counter() - start < 5.0
        assert "algorithms[0]: practical_override has 1 entries but the grid has 1000 batches" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_plus_grid_that_never_fits_warns(self, capsys):
        # the OFU-ReLU+ defaults on the fig2a shape give explore_sizes (0,) * 7
        raw = json.loads((CONFIGS / "fig2a.json").read_text())
        parse_experiment_config(dict(raw, algorithms=[{"name": "ofu_relu_plus"}]))
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "never fits" in err
        plus_refit = CONFIGS.parent / "perfbench" / "workloads" / "plus_refit.json"
        parse_experiment_config(json.loads(plus_refit.read_text()))
        assert capsys.readouterr().err == ""

    def test_plus_schedule_reads_ucb_sigma_not_the_environment_sigma(self):
        # t0 grows with max(k, sigma)^2, so at k = 1 a noise level of 3 moves the grid; only ucb_sigma
        # (whose default is sigma) moves it, since no agent reads the environment
        block = {"name": "ofu_relu_plus", "nu0": 0.5, "b": 2.0 ** 0.125, "C1": 1e-5, "C2": 1e-5}

        def sizes(sigma, ucb_sigma):
            raw = dict(TINY, T=1000, sigma=sigma, algorithms=[dict(block, ucb_sigma=ucb_sigma)])
            return agents.build_batch_grid(parse_experiment_config(raw).algorithms[0], 1, 2, 1000).explore_sizes

        assert sizes(0.1, 3.0) == sizes(3.0, 3.0) == (1, 3, 6, 11, 22, 44, 88)
        assert sizes(3.0, 0.1) == sizes(0.1, 0.1) == (0, 0, 1, 1, 2, 5, 10)

    def test_single_trial_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, trials=1))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_duplicate_labels_exit2(self, tmp_path, capsys):
        bad = dict(TINY, algorithms=[{"name": "random"}, {"name": "random"}])
        cfg = write_config(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_infeasible_alpha0_exit1(self, tmp_path, capsys):
        # 0.999 passes the planar bound 2 sin(pi/6) = 1, but almost no uniform
        # draw of three rows reaches it, so instance generation gives up
        bad = dict(TINY, k=3, d=2, alpha0=0.999, algorithms=[{"name": "random"}])
        cfg = write_config(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 1
        assert "no instance with separation" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_run_removes_only_the_empty_directory_it_made(self, tmp_path, capsys):
        # numpy cannot allocate a 10**30-round trace; the run fails at its first trial
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, T=10**30, algorithms=[{"name": "random"}]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert not (tmp_path / "o").exists()
        (tmp_path / "given").mkdir()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "given"), "--jobs", "1"]) == 2
        assert (tmp_path / "given").is_dir()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "nest" / "a" / "b"), "--jobs", "1"]) == 2
        assert not (tmp_path / "nest").exists()  # every directory the run made, innermost first
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "given" / "a" / "b"), "--jobs", "1"]) == 2
        assert (tmp_path / "given").is_dir() and not (tmp_path / "given" / "a").exists()  # the empty parent stays
        capsys.readouterr()

    def test_alpha0_above_sqrt2_exit2_before_output(self, tmp_path, capsys):
        bad = dict(TINY, k=2, alpha0=2.1, algorithms=[{"name": "random"}])
        cfg = write_config(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert "alpha0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_dir_collision_exit1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", TINY)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 1
        capsys.readouterr()

    def test_malformed_json_exit2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_negative_fit_seed_exit2_before_output(self, tmp_path, capsys):
        # unchecked, numpy's generator rejects it only at the first fit (round 21), naming no key
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, algorithms=[{"name": "ofu_relu", "fit": {"seed": -1}}]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "algorithms[0].fit: seed must be an integer in [0, inf), got -1" in captured.err
        assert not (tmp_path / "o").exists()

    def test_bad_jobs_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", TINY)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2
        capsys.readouterr()


class TestEstimate:
    def test_error_sweep_nonincreasing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "sample_sizes": [20, 100, 500]})
        assert main(["estimate", "--config", cfg, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        means = [float(l.split()[1]) for l in out.splitlines() if l.strip().startswith("mean_error")]
        assert len(means) == 3
        assert all(b <= a for a, b in zip(means, means[1:]))
        # k=1: exactly one matched pair per block
        assert out.count("neuron 0:") == 3 and "neuron 1:" not in out
        zetas = [float(l.split()[1]) for l in out.splitlines() if l.strip().startswith("zeta")]
        assert all(np.isfinite(zetas)) and zetas == sorted(zetas, reverse=True)

    def test_noiseless_recovery(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "sigma": 0.0, "sample_sizes": [500]})
        assert main(["estimate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        max_err = float(next(l for l in out.splitlines() if "max_error" in l).split()[3])
        assert max_err < 0.05

    def test_unknown_key_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "bogus": True})
        assert main(["estimate", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_nonfinite_delta_exit2(self, tmp_path, capsys):
        for delta in (math.nan, HUGE_INT):  # an integer beyond any float is not finite either
            cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "delta": delta})
            assert main(["estimate", "--config", cfg]) == 2
            assert "delta must be a number in (0, 1), got " in capsys.readouterr().err

    def test_delta_outside_unit_interval_exit2(self, tmp_path, capsys):
        # the library accepts delta >= 1; the CLI asks for a confidence in (0, 1)
        for delta in (0.0, 1.0, 1.5):
            cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "delta": delta})
            assert main(["estimate", "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert "delta must be a number in (0, 1)" in captured.err and captured.out == ""

    def test_negative_seed_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2})
        assert main(["estimate", "--config", cfg, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be an integer in [0, inf), got -1" in captured.err and captured.out == ""

    def test_negative_fit_seed_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "fit": {"seed": -1}})
        assert main(["estimate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config.fit: seed must be an integer in [0, inf), got -1" in captured.err

    def test_boolean_sample_size_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "sample_sizes": [True]})
        assert main(["estimate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "sample_sizes[0] must be an integer in [1, inf), got True" in captured.err and captured.out == ""

    def test_empty_sample_sizes_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "sample_sizes": []})
        assert main(["estimate", "--config", cfg]) == 2
        capsys.readouterr()

    def test_alpha0_above_sqrt2_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 2, "d": 2, "alpha0": 2.1})
        assert main(["estimate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "alpha0" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "key,value,given", [("delta", 1e-320, " delta="), ("sigma", 1e200, " sigma=")]
    )
    def test_bound_out_of_float_range_exit2(self, key, value, given, tmp_path, capsys):
        # zeta overflows (4/delta or sigma^2); it is checked before the first draw
        cfg = write_config(tmp_path / "est.json", {"k": 2, "d": 3, "sample_sizes": [50], key: value})
        assert main(["estimate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: zeta_bound(n=")
        assert captured.err.endswith(") is out of floating-point range\n")
        assert f"{given.lstrip()}{value}" in captured.err  # names the input that left the range, with its value

    def test_fit_range_error_names_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "fit": {"restarts": 0}})
        assert main(["estimate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "config.fit: restarts" in captured.err and captured.out == ""


class TestEntryPoint:
    @staticmethod
    def cli_import_loads(*modules):
        """Whether importing the CLI in a fresh interpreter loads any of modules."""
        src = str(Path(relu_bandits.__file__).resolve().parents[1])
        code = f"import sys, relu_bandits.cli; sys.exit(any(m in sys.modules for m in {modules!r}))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported inside match_neurons only, which keeps CLI start-up short
        assert not self.cli_import_loads("scipy")

    def test_import_leaves_multiprocessing_unloaded(self):
        # the process pool is imported only when --jobs asks for more than one worker
        assert not self.cli_import_loads("concurrent.futures.process", "multiprocessing")

    def test_import_leaves_urllib_request_unloaded(self):
        # the SVG legend escapes labels by hand; xml.sax.saxutils would load urllib.request
        assert not self.cli_import_loads("xml.sax.saxutils", "urllib.request")

    def test_no_subcommand_exit2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit2(self, capsys):
        for argv in (["frobnicate"], ["check-bounds", "--k", "3", "--d", "2"]):  # check-bounds was removed
            assert main(argv) == 2
            assert "invalid choice" in capsys.readouterr().err
