import csv
import json
import math

import numpy as np
import pytest

from relu_bandits import (
    BoundParams,
    BoundVacuousError,
    alpha_bound,
    h_bound,
    t0_schedule,
    zeta_bound,
)
from relu_bandits.cli import main

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


class TestCheckBounds:
    def test_values_match_library(self, capsys):
        code = main(
            ["check-bounds", "--k", "2", "--d", "3", "--sigma", "0.2",
             "--delta", "0.1", "--T", "500", "--nu", "0.3", "--n", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = {l.split()[0]: l for l in out.strip().splitlines()}
        p = BoundParams(k=2, d=3, sigma=0.2, delta=0.1, T=500.0)
        zeta = zeta_bound(200, p)
        assert lines["zeta"].split()[1] == f"{zeta:.12g}"
        assert lines["alpha"].split()[1] == f"{alpha_bound(zeta, p):.12g}"
        assert lines["t0"].split()[1] == f"{t0_schedule(0.3, p):.12g}"
        for eps in (0.001, 0.002, 0.003):
            tag = f"h(eta=0, eps={eps:g})"
            row = next(l for l in out.splitlines() if l.startswith(tag))
            try:
                hv = h_bound(0.0, eps, 2, 3)
                assert row.split()[-1] == f"{hv:.12g}"
            except BoundVacuousError:
                assert "vacuous" in row

    def test_d2_h_unsupported(self, capsys):
        code = main(["check-bounds", "--k", "1", "--d", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "h unsupported for d < 3" in out

    def test_bad_delta_exit2(self, capsys):
        code = main(["check-bounds", "--k", "1", "--d", "2", "--delta", "1.5"])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_bad_nu_exit2(self, capsys):
        code = main(["check-bounds", "--k", "1", "--d", "2", "--nu", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--sigma", "nan"), ("--nu", "inf"), ("--C1", "nan"), ("--C2", "-inf")])
    def test_nonfinite_number_exit2(self, flag, value, capsys):
        code = main(["check-bounds", "--k", "1", "--d", "2", f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "finite" in captured.err and captured.out == ""

    def test_missing_required_flag(self, capsys):
        assert main(["check-bounds", "--k", "1"]) == 2


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
        ],
    )
    def test_nonfinite_number_exit2(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY, **override))
        raw = (tmp_path / "cfg.json").read_text()
        assert "NaN" in raw or "Infinity" in raw  # json writes the non-standard literals
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "finite" in err
        assert not (tmp_path / "o").exists()

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
        bad = dict(TINY, k=2, alpha0=2.1, algorithms=[{"name": "random"}])
        cfg = write_config(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 1
        capsys.readouterr()

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
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "delta": math.nan})
        assert main(["estimate", "--config", cfg]) == 2
        assert "'delta'" in capsys.readouterr().err

    def test_empty_sample_sizes_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "est.json", {"k": 1, "d": 2, "sample_sizes": []})
        assert main(["estimate", "--config", cfg]) == 2
        capsys.readouterr()


class TestEntryPoint:
    def test_no_subcommand_exit2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
