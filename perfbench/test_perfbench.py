"""Tests of the benchmark itself: tracing leaves the results alone, the
per-layer table matches BENCHMARK.json, and the output checks catch damage.

The jobs here are tiny versions of the workloads so the file runs in a few
seconds with the rest of the suite.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_SIMULATE = {
    "k": 3,
    "d": 2,
    "T": 70,
    "trials": 2,
    "arms_per_round": 50,
    "sigma": 0.1,
    "alpha0": 0.5,
    "algorithms": [
        {"name": "ofu_relu", "t0": 10, "lambda": 0.01, "fit": {"restarts": 2, "max_iters": 50}},
        {"name": "oful", "lambda": 0.01},
        {"name": "random"},
        {"name": "ofu_relu_plus", "T1": 10, "practical_override": [5, 5, 5], "fit": {"restarts": 2, "max_iters": 50}},
    ],
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Register a tiny workload under the checkout root and return a factory."""
    monkeypatch.chdir(ROOT)

    def make(name, config):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        monkeypatch.setitem(run.WORKLOADS, name, ("test workload", str(path), None))
        return run.Workload(name, seed=3)

    return make


def test_tracing_keeps_simulate_artifacts(tiny):
    wl = tiny("test-tiny-simulate", TINY_SIMULATE)
    deadline = time.monotonic() + 120
    untraced = run.run_job(wl, "run", wl.job_seed(0), deadline)
    assert untraced["ok"], untraced
    plain = wl.hashes()
    assert wl.check()[1:3] == (0, [])
    traced = run.run_job(wl, "trace", wl.job_seed(0), deadline)
    assert traced["ok"], traced
    assert wl.check()[1:3] == (0, [])
    assert wl.hashes() == plain
    layers = traced["layers"]
    assert layers["harness.run_trial.ofu_relu_plus.n"] == 2
    assert layers["agents.refits"] == 2 + 2 * 3  # one fit per ofu_relu trial, three per ofu_relu_plus trial
    assert layers["linear_ucb.ridge_update.in_rebuild_calls"] > 0
    assert layers["harness.sample_arms.calls"] == 4 * 2 * 70


def test_per_layer_table_matches_benchmark_json(tiny):
    wl = tiny("test-tiny-simulate", TINY_SIMULATE)
    rec = run.run_job(wl, "trace", wl.job_seed(0), time.monotonic() + 120)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    printed = list(rec["layers"]) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, w[0]) for n, w in run.WORKLOADS.items()]


def test_checks_fail_damaged_traces(tiny):
    wl = tiny("test-tiny-simulate", TINY_SIMULATE)
    assert run.run_job(wl, "run", wl.job_seed(0), time.monotonic() + 120)["ok"]
    path = os.path.join(wl.out, "traces.csv")
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[5].split(",")
    fields[-1] = "1e9\n"  # cum_regret no longer the running sum
    lines[5] = ",".join(fields)
    with open(path, "w") as fh:
        fh.writelines(lines)
    attempted, failed, problems, _ = wl.check()
    assert (attempted, failed) == (8, 1) and problems
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])  # one row missing fails the whole job
    assert wl.check()[1] == 8


def test_order_check_pools_jobs():
    a = {"ofu_relu": 1.0, "oful": 5.0, "random": 9.0}
    b = {"ofu_relu": 4.0, "oful": 3.0, "random": 9.0}  # reversed alone, ordered on the mean with a
    assert checks.check_order([a, b]) is None
    assert checks.check_order([b]) is not None
    assert checks.check_order([a, {}]) is not None  # a job without a summary fails the run


def test_job_seeds_follow_the_benchmark_seed(tiny):
    wl = tiny("test-tiny-simulate", TINY_SIMULATE)
    assert [wl.job_seed(j) for j in range(3)] == [3000, 3001, 3002]
    assert wl.argv(3001)[-4:] == ["--seed", "3001", "--out", wl.out]


def test_times_are_divided_by_the_kernel_around_them():
    job = {"wall_s": 3.0, "cpu_s": 4.5, "ref_before": 0.2, "ref_after": 0.4}
    assert run.per_ref(job, "wall_s") == pytest.approx(10.0)
    assert run.per_ref(job, "cpu_s") == pytest.approx(15.0)
    assert run.reference_kernel() > 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", -1, 0.0, 10.0, None],
        ["b", 0, 1.0, 4.0, None],
        ["c", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 6.0, None],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tail_leaves_ten_samples_above():
    assert tracer.tail(list(range(100))) == 89
    assert tracer.tail(list(range(11))) == 0
    assert tracer.tail([3.0, 1.0]) == 3.0
    assert tracer.tail([]) == 0.0
