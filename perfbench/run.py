"""relu-bandits benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload fig2a --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` as is, nothing is built or installed.  Every job is one
``relu-bandits simulate`` invocation at ``--jobs 1`` in a fresh process
(``child.py``), a closed batch job: the next job starts when the previous
one has exited.  Jobs are short (two trials each) so that a run holds many
of them.  Job ``j`` of a run gets ``--seed <seed> * 1000 + j``, so the same benchmark
seed gives the same sequence of inputs.

``--trace 0`` first takes set-up samples (import plus config parse, the
process stopped there), then runs untraced jobs until ``--seconds`` have
passed and the run holds enough trials for its regret-ordering check, and
prints the medians over the jobs of the end-to-end metrics:

* ``setup_s``: process start to package imported and config parsed;
* ``wall_ref``: a job's wall time, from the end of set-up to the last
  artifact written, divided by the time of ``reference_kernel`` around it;
* ``cpu_ref``: user plus system CPU time of the job's process, divided the
  same way;
* ``peak_rss_mb``: that process's maximum resident set size.

The reference kernel runs in this process between jobs.  Dividing by it
cancels most of a shared host's contention: on a 2-CPU x86_64 VM, ten runs
of the same code spread their raw median wall times by 0.18 to 0.27 of the
median (quartile distance) and their wall_ref by 0.07 to 0.15.  The raw
medians, ``wall_s`` and ``cpu_s`` in seconds, are printed on the detail
line.

``--trace 1`` runs each job seed untraced and then traced (past
``--seconds``, only the untraced jobs the ordering check still needs), and
prints the per-layer table of ``tracer.py`` (medians over traced jobs) plus
``trace.overhead_s``, the traced minus the untraced median wall time.  The
traced artifacts must hash like the untraced ones of the same job seed.

Every job's outputs are checked (``checks.py``); failed checks count as
failed ops.  The paper's ordering of final mean regret is checked once per
run, on the mean over all its untraced jobs, since two trials are too few
to order the algorithms.  The sha256 of ``aggregate.csv`` and
``summary.json`` of the run's first job is compared with
``reference_hashes.json``: a difference is reported as
``artifacts_changed``, not as a failure, so a change that moves the
numbers shows.  The line before the result holds those hashes,
the machine and library versions and the workload's shape; it is also
written to ``.perfbench/results/``.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1  # one core per job: --jobs 1 is a single process, capped BLAS keeps it so
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads BLAS; the jobs inherit it

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench"
SETUP_REPS = 2  # set-up-only jobs per run, besides the set-up of every full job
RUN_LIMIT_S = 170.0  # a run must end within 180 s
REFITS_PER_TRIAL = 7  # batches of the plus-refit grid (T1=10, a=2, T=1000)
JOB_SEEDS = 1000  # job seeds per benchmark seed: job j runs --seed <seed> * JOB_SEEDS + j
TRIALS_PER_JOB = 2  # the CLI's minimum

# name -> (why, config, trials the run's regret ordering is checked on, or
# None for no ordering check).  oful's final regret is heavy-tailed (a third
# of its trials beat ofu_relu), so the paper's mean ordering needs 24 trials
# on fig2a before it holds by more than chance (a reversal on at most about
# 0.2% of seeds, by bootstrap from 30 trials); at 3 trials one seed in five
# reversed it.  A run goes on past --seconds until its untraced jobs hold
# that many trials.
#
# Two workloads, so that each run can be long (10 to 20 jobs per median)
# within the time all runs of the benchmark may take.  fig2a is dominated
# by the environment and the harness, plus-refit by ERM refits and the
# ridge rebuild; each is the near-idle side for an optimisation of the other.
WORKLOADS = {
    "fig2a": (
        "shipped Figure 2a config (k=3, d=2, 2kd=12): arm sampling, ArmSet checks and reward evaluation dominate",
        "configs/fig2a.json",
        24,
    ),
    "plus-refit": (
        "fig2a shape, OFU-ReLU+ alone with 7 refits per trial: small-n ERM, ridge rebuild and round history",
        "perfbench/workloads/plus_refit.json",
        None,
    ),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpus = os.sched_getaffinity(0)
    return {
        "nproc": len(cpus),
        "cpu": min(cpus),  # the one the run is pinned to
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small numpy products.

    A shared host's contention comes in phases of seconds to minutes and
    slows this kernel and the jobs alike (by up to 1.8x on a 2-CPU VM).  A job's time
    divided by the mean of the kernel times just before and just after it
    repeats across runs where the raw time does not.  The kernel is the
    benchmark's own code, so a change to the library cannot move it.
    """
    rng = np.random.default_rng(0)
    arms, weights = rng.standard_normal((1000, 6)), rng.standard_normal((6, 3))
    acc = 0.0
    start = time.perf_counter()
    for _ in range(4000):
        acc += float(np.maximum(arms @ weights, 0.0).sum(axis=1).max())
        acc += sum(i * 0.5 for i in range(300))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return elapsed


class Workload:
    """Config, shape and artifact layout of one named workload."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.why, base, self.ordered_trials = WORKLOADS[name]
        with open(base) as fh:
            config = json.load(fh)
        config["trials"] = TRIALS_PER_JOB
        self.dir = os.path.join(WORK, name)
        self.out = os.path.join(self.dir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:
            json.dump(config, fh, indent=2)
        k, d = config["k"], config["d"]
        self.shape = {
            "k": k,
            "d": d,
            "2kd": 2 * k * d,
            "T": config["T"],
            "m": config["arms_per_round"],
            "trials": config["trials"],
            "algorithms": [a.get("label", a["name"]) for a in config["algorithms"]],
        }
        self.artifacts = [os.path.join(self.out, f) for f in ("aggregate.csv", "summary.json")]

    def job_seed(self, j: int) -> int:
        if j >= JOB_SEEDS:
            raise RuntimeError(f"a run may start at most {JOB_SEEDS} jobs")
        return self.seed * JOB_SEEDS + j

    def argv(self, job_seed: int) -> list[str]:
        return ["simulate", "--config", self.config, "--jobs", "1", "--seed", str(job_seed), "--out", self.out]

    def check(self) -> tuple[int, int, list[str], dict]:
        return checks.check_simulate(self.out, self.shape)

    def hashes(self) -> dict:
        return {os.path.basename(p): sha256(p) for p in self.artifacts}


def run_job(wl: Workload, mode: str, job_seed: int, deadline: float) -> dict:
    """Start one child, wait for it, return its record with the parent's stamp."""
    record_path = os.path.join(wl.dir, f"record-{mode}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    job = {"mode": mode, "argv": wl.argv(job_seed), "record": record_path}
    job_path = os.path.join(wl.dir, f"job-{mode}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job_path],
            env=env,
            timeout=max(1.0, deadline - start),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"ok": False, "error": f"{mode} job passed the run's time limit"}
    if proc.returncode != 0 or not os.path.exists(record_path):
        return {"ok": False, "error": f"{mode} job exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(record_path) as fh:
        rec = json.load(fh)
    if rec["rc"] != 0 or rec["setup_end"] is None:
        return {"ok": False, "error": f"relu-bandits exited {rec['rc']} in a {mode} job: {proc.stderr.strip()[-500:]}"}
    rec["ok"] = True
    rec["setup_s"] = rec["setup_end"] - start
    rec["wall_s"] = rec["done"] - rec["setup_end"]
    return rec


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    result = {"attempted": 0, "failed": 0, "problems": [], "jobs": [], "setup_samples": setups}
    for _ in range(SETUP_REPS):
        rec = run_job(wl, "setup", wl.job_seed(0), deadline)
        if rec["ok"]:
            setups.append(rec["setup_s"])
        else:
            result["problems"].append(rec["error"])

    finals: list[dict] = []  # final mean regret per algorithm of each untraced job
    start = time.monotonic()
    ref = reference_kernel()
    while True:
        elapsed = time.monotonic() - start
        enough_trials = wl.ordered_trials is None or len(finals) * wl.shape["trials"] >= wl.ordered_trials
        if elapsed >= seconds and enough_trials:
            break
        # past --seconds, only the untraced jobs the ordering check still needs run
        modes = ("run", "trace") if trace and elapsed < seconds else ("run",)
        job_seed = wl.job_seed(len(finals))
        untraced_hashes = None
        for mode in modes:
            rec = run_job(wl, mode, job_seed, deadline)
            rec.update(mode=mode, seed=job_seed)
            result["jobs"].append(rec)
            if not rec["ok"]:
                result["problems"].append(rec["error"])
                return result
            rec["ref_before"] = ref
            ref = rec["ref_after"] = reference_kernel()
            setups.append(rec["setup_s"])
            attempted, failed, problems, final = wl.check()
            rec["hashes"] = wl.hashes()
            if mode == "run":
                untraced_hashes = rec["hashes"]
                finals.append(final)
            elif rec["hashes"] != untraced_hashes:
                problems.append(f"traced artifacts {rec['hashes']} differ from the untraced {untraced_hashes}")
                failed = attempted
            if mode == "trace" and wl.name == "plus-refit":
                refits = rec["layers"]["agents.refits"]
                forced = rec["layers"]["agents.forced_exploration_rounds"]
                if refits != wl.shape["trials"] * REFITS_PER_TRIAL or forced != 0:
                    problems.append(
                        f"plus-refit made {refits} refits (expected {wl.shape['trials'] * REFITS_PER_TRIAL}) "
                        f"and {forced} forced-exploration rounds (expected 0)"
                    )
                    failed = attempted
            result["attempted"] += attempted
            result["failed"] += failed
            result["problems"] += problems
    if wl.ordered_trials is not None:
        problem = checks.check_order(finals)
        if problem:  # a defect of the run as a whole fails every op of it
            result["problems"].append(problem)
            result["failed"] = result["attempted"]
    return result


def per_ref(job: dict, key: str) -> float:
    """A job's time in units of the reference kernel's time around it."""
    return job[key] / ((job["ref_before"] + job["ref_after"]) / 2)


def raw_times(result: dict) -> dict:
    """Medians over the untraced jobs of the times in seconds, as the host gave them."""
    runs = [j for j in result["jobs"] if j["mode"] == "run" and j["ok"]]
    return {
        "wall_s": _median([j["wall_s"] for j in runs]),
        "cpu_s": _median([j["cpu_s"] for j in runs]),
        "reference_kernel_s": _median([j["ref_before"] for j in runs]),
        "jobs": len(runs),
    }


def metrics(result: dict, trace: bool) -> dict:
    runs = [j for j in result["jobs"] if j["mode"] == "run"]
    if not trace:
        return {
            "setup_s": {"value": _median(result["setup_samples"]), "unit": "s"},
            "wall_ref": {"value": _median([per_ref(j, "wall_s") for j in runs]), "unit": "ref"},
            "cpu_ref": {"value": _median([per_ref(j, "cpu_s") for j in runs]), "unit": "ref"},
            "peak_rss_mb": {"value": _median([j["peak_rss_mb"] for j in runs]), "unit": "MB"},
        }
    traced = [j for j in result["jobs"] if j["mode"] == "trace"]
    out = {
        name: {"value": _median([j["layers"][name] for j in traced]), "unit": tracer.unit(name)}
        for name in traced[0]["layers"]
    }
    overhead = _median([j["wall_s"] for j in traced]) - _median([j["wall_s"] for j in runs])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def reference_status(name: str, seed: int, hashes: dict | None) -> str:
    """Compare the hashes of a run's first job with the reference for its seed."""
    with open(os.path.join(HERE, "reference_hashes.json")) as fh:
        ref = json.load(fh).get(name, {}).get(str(seed))
    if hashes is None:
        return "no artifacts"
    if ref is None:
        return "no reference for this seed"
    return "match" if ref == hashes else "changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join("src", "relu_bandits", "cli.py")):
        print("error: run from the root of a relu-bandits checkout (src/relu_bandits is missing)", file=sys.stderr)
        return 2
    env = environment()
    # The reference kernel and every job run on one CPU, one after the other,
    # so that the kernel sees the contention the jobs saw: on a shared host
    # each CPU has neighbours of its own.
    os.sched_setaffinity(0, {env["cpu"]})
    wl = Workload(args.workload, args.seed)
    result = measure(wl, args.seconds, bool(args.trace))
    first = result["jobs"][0].get("hashes") if result["jobs"] else None
    status = reference_status(wl.name, wl.seed, first)
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "seed": wl.seed,
        "trace": args.trace,
        "environment": env,
        "shape": wl.shape,
        "hashes": first,
        "reference": status,
        "artifacts_changed": status == "changed",
        "problems": result["problems"],
        "untraced_medians": raw_times(result),
        "setup_samples": result["setup_samples"],
        "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in result["jobs"]],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if status == "changed":
        print(f"artifacts changed: {wl.name} seed {wl.seed} differs from reference_hashes.json", file=sys.stderr)
    complete = bool(result["jobs"]) and all(j["ok"] for j in result["jobs"])
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": complete and not result["problems"],
                "attempted": max(1, result["attempted"]),
                "failed": result["failed"] if complete else max(1, result["attempted"]),
                "metrics": metrics(result, bool(args.trace)) if complete else {},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
