"""In-memory span tracer that wraps the library's public names from outside.

``install`` replaces every public function of each ``relu_bandits`` module,
in every module namespace that imports it, with a wrapper that records a
span (name, parent span, start, end).  Public classes get their ``__init__``
wrapped (span named after the class) and every class gets its public methods
wrapped (span named ``<module>.<method>``), so construction costs such as
``ArmSet`` validation and the agent protocol calls ``select_arm``/``observe``
show up as layers too.  A span is named after the module that defines the
callee, wherever it is called from.  Nothing in the library is edited on disk.

Spans stay in memory until ``layer_metrics`` turns them into the per-layer
table and ``write_spans`` dumps them, both after the timed run has ended.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import defaultdict

MODULES = ("cli", "harness", "agents", "relu_model", "linear_ucb", "estimation", "reporting")
LABELS = ("ofu_relu", "oful", "random", "ofu_relu_plus")
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it

# span record fields
NAME, PARENT, START, END, ATTR = range(5)


class Tracer:
    """Spans and counters for one traced process; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.last_agent = None
        self._wrapped: dict[int, object] = {}

    def wrap(self, name: str, fn, on_exit=None):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, rec, args, result)
            return result

        self._wrapped[id(fn)] = traced
        return traced


# ---------------------------------------------------------------------------
# exit hooks: counters measured where the work happens


def _rows(tracer, rec, args, result):
    tracer.counters["relu_model.sign_robust_features_batch.rows"] += len(result)


def _margin(tracer, rec, args, result):
    tracer.counters["relu_model.margin_mask.offered"] += len(result)
    tracer.counters["relu_model.margin_mask.kept"] += int(result.sum())


def _candidates(tracer, rec, args, result):
    cands = args[2]
    tracer.counters["linear_ucb.ucb_select.candidates"] += len(cands) if getattr(cands, "ndim", 1) > 1 else 1


def _fit_samples(tracer, rec, args, result):
    tracer.counters["estimation.fit_erm.samples"] += len(args[0])


def _file_bytes(key):
    def hook(tracer, rec, args, result):
        tracer.counters[key] += os.path.getsize(args[1])

    return hook


def _remember_agent(tracer, rec, args, result):
    tracer.last_agent = result


def _trial_done(tracer, rec, args, result):
    rec[ATTR] = args[1].label
    agent, tracer.last_agent = tracer.last_agent, None
    if agent is not None:
        tracer.counters["agents.fallback_rounds"] += getattr(agent, "fallback_rounds", 0)
        tracer.counters["agents.forced_exploration_rounds"] += getattr(agent, "forced_exploration_rounds", 0)


HOOKS = {
    "relu_model.sign_robust_features_batch": _rows,
    "relu_model.margin_mask": _margin,
    "linear_ucb.ucb_select": _candidates,
    "estimation.fit_erm": _fit_samples,
    "reporting.export_csv": _file_bytes("reporting.export_csv.bytes"),
    "reporting.emit_svg": _file_bytes("reporting.emit_svg.bytes"),
    "agents.make_agent": _remember_agent,
    "harness.run_trial": _trial_done,
}


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions and classes of every module of ``package``."""
    prefix = package.__name__ + "."
    mods = {name: getattr(package, name) for name in MODULES}

    def span_name(obj) -> str | None:
        owner = getattr(obj, "__module__", "") or ""
        if not owner.startswith(prefix):
            return None
        return owner[len(prefix) :] + "." + obj.__name__

    classes = set()
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isclass(obj) and span_name(obj) and not issubclass(obj, BaseException):
                classes.add(obj)
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = span_name(obj)
            if name is not None:
                setattr(mod, attr, tracer.wrap(name, obj, HOOKS.get(name)))
    for cls in classes:
        module = span_name(cls).rsplit(".", 1)[0]
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                setattr(cls, attr, tracer.wrap(f"{module}.{attr}", obj))
        if not cls.__name__.startswith("_") and "__init__" in vars(cls):
            cls.__init__ = tracer.wrap(span_name(cls), cls.__init__)


# ---------------------------------------------------------------------------
# per-layer table


def tail(values: list[float]) -> float:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples no such percentile exists and the
    maximum is reported; the sample count is printed beside it.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else ordered[-1]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced job; idle layers read 0."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        incl[name] += dur
        excl[name] += own[i]
        if name in ("estimation.fit_erm", "harness.run_trial"):
            key = name if s[ATTR] is None else f"{name}.{s[ATTR]}"
            durations[key].append(dur)

    # refit rounds: observe spans with a fit_erm child; the ridge rebuild is
    # what such a round spends after the fit returns
    fit_of = {
        s[PARENT]: s
        for s in spans
        if s[NAME] == "estimation.fit_erm" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "agents.observe"
    }
    rebuild_s = sum((spans[p][END] - spans[p][START]) - (f[END] - f[START]) for p, f in fit_of.items())
    in_rebuild = sum(
        1
        for s in spans
        if s[NAME] == "linear_ucb.ridge_update" and s[PARENT] in fit_of and s[START] >= fit_of[s[PARENT]][END]
    )

    c = tracer.counters
    offered = c["relu_model.margin_mask.offered"]
    m = {
        "cli.import_s": import_s,
        "cli.parse_experiment_config.s": incl["cli.parse_experiment_config"],
        "harness.sample_arms.calls": calls["harness.sample_arms"],
        "harness.sample_arms.self_s": excl["harness.sample_arms"],
        "relu_model.ArmSet.calls": calls["relu_model.ArmSet"],
        "relu_model.ArmSet.s": incl["relu_model.ArmSet"],
        "relu_model.eval_f_batch.calls": calls["relu_model.eval_f_batch"],
        "relu_model.eval_f_batch.s": incl["relu_model.eval_f_batch"],
        "harness.run_trial.self_s": excl["harness.run_trial"],
    }
    for label in LABELS:
        d = durations[f"harness.run_trial.{label}"]
        m[f"harness.run_trial.{label}.p50_s"] = _p50(d)
        m[f"harness.run_trial.{label}.tail_s"] = tail(d)
        m[f"harness.run_trial.{label}.n"] = len(d)
    m.update(
        {
            "harness.gen_instance.s": incl["harness.gen_instance"],
            "harness.aggregate.s": incl["harness.aggregate"],
            "relu_model.sign_robust_features_batch.calls": calls["relu_model.sign_robust_features_batch"],
            "relu_model.sign_robust_features_batch.s": incl["relu_model.sign_robust_features_batch"],
            "relu_model.sign_robust_features_batch.rows": c["relu_model.sign_robust_features_batch.rows"],
            "relu_model.margin_mask.calls": calls["relu_model.margin_mask"],
            "relu_model.margin_mask.s": incl["relu_model.margin_mask"],
            "relu_model.margin_mask.kept_ratio": c["relu_model.margin_mask.kept"] / offered if offered else 0.0,
            "linear_ucb.ucb_select.calls": calls["linear_ucb.ucb_select"],
            "linear_ucb.ucb_select.s": incl["linear_ucb.ucb_select"],
            "linear_ucb.ucb_select.candidates": c["linear_ucb.ucb_select.candidates"],
            "linear_ucb.ridge_update.calls": calls["linear_ucb.ridge_update"],
            "linear_ucb.ridge_update.s": incl["linear_ucb.ridge_update"],
            "linear_ucb.ridge_update.in_rebuild_calls": in_rebuild,
            "agents.select_arm.self_s": excl["agents.select_arm"],
            "agents.observe.self_s": excl["agents.observe"],
            "agents.refit_rebuild_s": rebuild_s,
            "agents.refits": len(fit_of),
            "agents.fallback_rounds": c["agents.fallback_rounds"],
            "agents.forced_exploration_rounds": c["agents.forced_exploration_rounds"],
            "estimation.fit_erm.calls": calls["estimation.fit_erm"],
            "estimation.fit_erm.s": incl["estimation.fit_erm"],
            "estimation.fit_erm.p50_s": _p50(durations["estimation.fit_erm"]),
            "estimation.fit_erm.samples": c["estimation.fit_erm.samples"],
            "reporting.export_csv.s": incl["reporting.export_csv"],
            "reporting.export_csv.bytes": c["reporting.export_csv.bytes"],
            "reporting.emit_svg.s": incl["reporting.emit_svg"],
            "reporting.emit_svg.bytes": c["reporting.emit_svg.bytes"],
            "reporting.write_summary.s": incl["reporting.write_summary"],
        }
    )
    for mod in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == mod]
        m[f"{mod}.calls"] = sum(calls[n] for n in names)
        m[f"{mod}.self_s"] = sum(excl[n] for n in names)
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(tracer: Tracer, path: str) -> None:
    """Dump the spans as CSV: id, parent, name, start_s, end_s, attr."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,attr\n")
        for i, s in enumerate(tracer.spans):
            fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[ATTR] or ''}\n")
