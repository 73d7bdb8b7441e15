"""One range rule for every checked input: one row per field, argument or key.

A row names the input, a call that feeds it a value with every other input
valid, and the range the rule gives it: low, high, whether low itself is
excluded and whether the value must be an integer.  From the range the table
derives what it sends.  NaN, +inf, the nearest value outside its low end and,
where high is finite, high itself must raise a ValueError whose message starts
with the name; so must what is not a number in the float range, whatever the
row: a bool, a string and an integer beyond the largest float, and a float
where an integer is required.  A CLI key takes the same message, since the
JSON layer leaves every number to the rule.  The value on a closed bound, or
a step of 2**-10 inside an open one, must pass.

The one check that is not a plain range, the instance's alpha0 separation
bound, has its own tests.

The package defines no exception classes.  A check that is not a range, of a
shape, a dimension or a batch grid, raises a plain ValueError; a bound
evaluator whose formula leaves the float range at accepted inputs raises a
ValueError naming itself and its arguments; and the few failures that are not
bad input raise a plain RuntimeError or ArithmeticError.  The last three
tables hold one row per such site.
"""

import argparse
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from relu_bandits import (
    FitConfig,
    eval_f_batch,
    match_neurons,
    Instance,
    OfuReluConfig,
    OfuReluPlusConfig,
    RandomConfig,
    ReluNetwork,
    UcbConfig,
    alpha_bound,
    fit_erm,
    gen_instance,
    run_trial,
    sample_arms,
    t0_schedule,
    zeta_bound,
)
from relu_bandits import cli
from relu_bandits.agents import RandomAgent, build_batch_grid, make_agent
from relu_bandits.errors import _require
from relu_bandits.estimation import h_bound
from relu_bandits.harness import ExperimentConfig, run_experiment
from relu_bandits.linear_ucb import DELTA_MIN, LAMBDA_MIN, LinearUcbState, conf_radius, ridge_update, ucb_select
from relu_bandits.relu_model import exact_argmax_2d, margin_mask, sign_robust_features_batch

INSIDE = 2.0**-10  # the step inside an open bound: small, and every formula stays in range at it
UCB = UcbConfig(sigma=0.1, S=1.0, delta=0.1)
FIT = FitConfig(restarts=1, max_iters=1)
SIMULATE = {"k": 1, "d": 2, "T": 1, "trials": 2, "arms_per_round": 1, "algorithms": [{"name": "random"}]}
ESTIMATE = {"k": 1, "d": 2, "sample_sizes": [1], "fit": {"restarts": 1, "max_iters": 1}}


@dataclass(frozen=True)
class Row:
    where: str
    name: str
    call: Callable
    low: float
    high: float = math.inf
    strict: bool = False
    integer: bool = False


def rows(where, call, *specs, **flags):
    """One row per spec, (name, low) or (name, low, high), fed as ``call(name=value)``, all with the same flags.

    An input whose message name is not its keyword gets its own ``Row``.
    """
    return [Row(where, spec[0], lambda v, name=spec[0]: call(**{name: v}), *spec[1:], **flags) for spec in specs]


def zeta(n=100, k=1, d=2, sigma=0.1, delta=0.1):
    zeta_bound(n, k, d, sigma, delta)


def alpha(zeta=0.5, k=1, d=2):
    alpha_bound(zeta, k, d)


def h(eta=0.0, eps=0.001, k=1, d=3):
    h_bound(eta, eps, k, d)


def t0(nu=0.5, k=1, d=2, sigma=0.1, T=1000.0, C1=1.0, C2=1.0):
    t0_schedule(nu, k, d, sigma, T, C1=C1, C2=C2)


def ofu_relu(t0=5, nu=0.0):
    OfuReluConfig(t0=t0, ucb=UCB, fit=FIT, nu=nu)


def plus(nu0=1.0, T1=10, a=2.0, b=2.0, C1=1.0, C2=1.0, practical_override=None):
    return OfuReluPlusConfig(nu0=nu0, T1=T1, a=a, b=b, ucb=UCB, fit=FIT, C1=C1, C2=C2, practical_override=practical_override)


def ucb(sigma=0.1, S=1.0, delta=0.1, lam=1.0):
    UcbConfig(sigma=sigma, S=S, delta=delta, lam=lam)


def instance(k=2, d=2, alpha0=0.0, sigma=0.1):
    gen_instance(k, d, alpha0, sigma, np.random.default_rng(0))


def arms(m=1, d=2):
    sample_arms(m, d, np.random.default_rng(0))


def trial(T=1):
    inst = Instance(truth=ReluNetwork(np.array([[1.0, 0.0]])), sigma=0.1)
    run_trial(inst, RandomConfig(), T, 2, np.random.default_rng(0))


def experiment(trials=2, seed=0):
    run_experiment(ExperimentConfig(
        k=1, d=2, T=1, trials=trials, arms_per_round=1, sigma=0.1, alpha0=0.0, seed=seed,
        algorithms=(RandomConfig(),), out_dir="", echo={},
    ))


def simulate_key(**key):
    cli.parse_experiment_config(dict(SIMULATE, **key))


def simulate_jobs(jobs):
    # the test runs in its own temporary directory
    with open("sim.json", "w") as fh:
        json.dump(SIMULATE, fh)
    cli.cmd_simulate(argparse.Namespace(config="sim.json", out="out", jobs=jobs, seed=None))


def estimate(seed=None, **key):
    with open("est.json", "w") as fh:
        json.dump(dict(ESTIMATE, **key), fh)
    cli.cmd_estimate(argparse.Namespace(config="est.json", seed=seed))


ROWS = [
    *rows("FitConfig", FitConfig, ("restarts", 1), ("max_iters", 1), ("seed", 0), integer=True),
    *rows("FitConfig", FitConfig, ("step_size", 0.0), ("tol", 0.0), strict=True),
    Row("fit_erm", "k", lambda k: fit_erm([[1.0, 0.0]], [0.0], k, FIT), 1, integer=True),
    *rows("zeta_bound", zeta, ("k", 1), ("d", 1), integer=True),
    *rows("zeta_bound", zeta, ("n", 1), ("sigma", 0.0)),
    *rows("zeta_bound", zeta, ("delta", 0.0), strict=True),
    *rows("alpha_bound", alpha, ("k", 1), ("d", 1), integer=True),
    *rows("alpha_bound", alpha, ("zeta", 0.0)),
    *rows("h_bound", h, ("k", 1), ("d", 3), integer=True),
    *rows("h_bound", h, ("eta", 0.0)),
    *rows("h_bound", h, ("eps", 0.0), strict=True),
    *rows("t0_schedule", t0, ("k", 1), ("d", 1), integer=True),
    *rows("t0_schedule", t0, ("sigma", 0.0), ("T", math.e)),
    *rows("t0_schedule", t0, ("nu", 0.0), ("C1", 0.0), ("C2", 0.0), strict=True),
    *rows("OfuReluConfig", ofu_relu, ("t0", 1), integer=True),
    *rows("OfuReluConfig", ofu_relu, ("nu", 0.0)),
    *rows("OfuReluPlusConfig", plus, ("T1", 1), integer=True),
    *rows("OfuReluPlusConfig", plus, ("nu0", 0.0), ("a", 1.0), ("b", 1.0), ("C1", 0.0), ("C2", 0.0), strict=True),
    Row("OfuReluPlusConfig", "practical_override", lambda v: plus(practical_override=(3, v)), 0, integer=True),
    *rows("UcbConfig", ucb, ("sigma", 0.0)),
    Row("UcbConfig", "lambda", lambda v: ucb(lam=v), LAMBDA_MIN),
    *rows("UcbConfig", ucb, ("S", 0.0), ("delta", DELTA_MIN, 1.0), strict=True),
    Row("LinearUcbState", "dim", LinearUcbState, 1, integer=True),
    Row("LinearUcbState", "lambda", lambda v: LinearUcbState(2, v), LAMBDA_MIN),
    *rows("gen_instance", instance, ("k", 1), ("d", 2), integer=True),
    *rows("gen_instance", instance, ("sigma", 0.0), ("alpha0", 0.0)),
    *rows("sample_arms", arms, ("m", 1), ("d", 2), integer=True),
    *rows("run_trial", trial, ("T", 1), integer=True),
    *rows("run_experiment", experiment, ("trials", 2), ("seed", 0), integer=True),
    *rows("simulate", simulate_key, ("k", 1), ("d", 2), ("T", 1), ("trials", 2), ("arms_per_round", 1), ("seed", 0),
          integer=True),
    *rows("simulate", simulate_key, ("sigma", 0.0), ("alpha0", 0.0)),
    Row("simulate", "--jobs", simulate_jobs, 1, integer=True),
    *rows("estimate", estimate, ("seed", 0), integer=True),
    Row("estimate", "sample_sizes", lambda v: estimate(sample_sizes=[v]), 1, integer=True),
    *rows("estimate", estimate, ("delta", 0.0, 1.0), strict=True),
]


def rejected(row):
    below = row.low - 1 if row.integer else (row.low if row.strict else math.nextafter(row.low, -math.inf))
    values = {"nan": math.nan, "inf": math.inf, "below": below, "bool": True, "str": "1", "huge": 10**400}
    if row.integer:
        values["float"] = float(row.low)
    if row.high < math.inf:
        values["high"] = row.high
    return values


def accepted(row):
    values = {"low": row.low + INSIDE if row.strict else row.low}
    if row.high < math.inf:
        values["under-high"] = row.high - INSIDE
    return values


def cases(values_of):
    return [
        pytest.param(row, value, id=f"{row.where}.{row.name}-{label}")
        for row in ROWS for label, value in values_of(row).items()
    ]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("row,value", cases(rejected))
def test_rejected_naming_the_input(row, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(row.name)}\b"):
        row.call(value)


@pytest.mark.parametrize("row,value", cases(accepted))
def test_boundary_accepted(row, value):
    row.call(value)


@pytest.mark.parametrize(
    "args,kw,message",
    [
        (("t0", 0, 1), {"integer": True}, "t0 must be an integer in [1, inf), got 0"),
        (("nu0", math.nan, 0.0), {"strict": True}, "nu0 must be a number in (0, inf), got nan"),
        (("delta", 1.0, 0.0, 1.0), {"strict": True}, "delta must be a number in (0, 1), got 1.0"),
        (("seed", True, 0), {"integer": True}, "seed must be an integer in [0, inf), got True"),
        (("sigma", True, 0.0), {}, "sigma must be a number in [0, inf), got True"),
        (("sigma", "0.1", 0.0), {}, "sigma must be a number in [0, inf), got '0.1'"),
        pytest.param(("T", 2**1024, 1), {"integer": True}, f"T must be an integer in [1, inf), got {2**1024}",
                     id="beyond-the-largest-float"),
    ],
)
def test_message_form(args, kw, message):
    with pytest.raises(ValueError) as err:
        _require(*args, **kw)
    assert str(err.value) == message


NET = ReluNetwork(np.array([[1.0, 0.0]]))

# the input checks that are not ranges: shapes, dimensions and the batch grid
NOT_RANGES = [
    pytest.param(lambda: ReluNetwork(np.array([1.0, 0.0])), r"weights must be a nonempty 2-D array, got shape \(2,\)",
                 id="ReluNetwork.weights"),
    pytest.param(lambda: fit_erm([[1.0, 0.0]], [0.0, 1.0], 1, FIT), r"y has shape \(2,\), expected \(1,\)", id="fit_erm.y"),
    pytest.param(lambda: fit_erm([[1.0, 0.0]], [0.0], 2, FIT, init=NET), r"init has shape \(1, 2\), expected \(2, 2\)",
                 id="fit_erm.init"),
    pytest.param(lambda: fit_erm([[1.0, 0.0]], [math.inf], 1, FIT), "labels must be finite", id="fit_erm.y-finite"),
    pytest.param(lambda: match_neurons(NET, ReluNetwork(np.eye(2))), r"estimate \(1, 2\) and truth \(2, 2\) disagree",
                 id="match_neurons"),
    pytest.param(lambda: eval_f_batch(NET, np.ones((1, 3))), r"actions have shape \(1, 3\), expected \(m, 2\)",
                 id="eval_f_batch.actions"),
    pytest.param(lambda: sign_robust_features_batch(np.ones((2, 2)), np.ones((1, 1))),
                 r"actions \(2, 2\) and projection \(1, 1\) do not pair up", id="sign_robust_features_batch"),
    pytest.param(lambda: margin_mask(np.empty((5, 0)), 0.1),
                 r"projection must be a 2-D \(m, k\) array with k >= 1, got shape \(5, 0\)", id="margin_mask.proj"),
    pytest.param(lambda: exact_argmax_2d(ReluNetwork(np.eye(3))), "exact argmax is implemented for d=2 only, got d=3",
                 id="exact_argmax_2d.d"),
    pytest.param(lambda: ridge_update(LinearUcbState(2), [1.0, 0.0, 0.0], 1.0),
                 r"feature has shape \(3,\), expected \(2,\) or \(n, 2\)", id="ridge_update.x"),
    pytest.param(lambda: ridge_update(LinearUcbState(2), np.ones((2, 2)), np.ones(3)),
                 r"2 feature rows have rewards of shape \(3,\)", id="ridge_update.y"),
    pytest.param(lambda: ucb_select(LinearUcbState(2), UCB, np.ones((1, 3))),
                 r"candidates have shape \(1, 3\), expected \(m, 2\)", id="ucb_select.candidates"),
    pytest.param(lambda: build_batch_grid(plus(), 1, 2, 5), "horizon T=5 is shorter than the first batch T1=10",
                 id="build_batch_grid.T"),
    pytest.param(lambda: build_batch_grid(plus(practical_override=(3, 3)), 1, 2, 70),
                 "practical_override has 2 entries but the grid has 3 batches", id="build_batch_grid.practical_override"),
    pytest.param(lambda: build_batch_grid(plus(a=1e308), 1, 2, 40),
                 r"a=1e\+308 puts batch 1's boundary \(a\^1 - 1\) T1 out of floating-point range", id="build_batch_grid.a"),
    pytest.param(lambda: build_batch_grid(plus(b=1e200), 1, 2, 40),
                 r"a=2\.0 and b=1e\+200 put batch 2's gap divisor b\^2 out of floating-point range", id="build_batch_grid.b"),
    pytest.param(lambda: build_batch_grid(plus(T1=27, a=1.001, b=1.5), 1, 2, 1971),  # a near 1: one-round batches
                 r"a=1\.001 and b=1\.5 put batch 1751's gap divisor b\^1751 out of floating-point range",
                 id="build_batch_grid.a-near-one"),
    pytest.param(lambda: conf_radius(LinearUcbState(2, 2.0), UCB), "config lambda 1.0 does not match state lambda 2.0",
                 id="conf_radius.lambda"),
    pytest.param(lambda: make_agent(object(), 1, 2, 10), "unknown agent config type object", id="make_agent.cfg"),
]

# finite inputs the range rule accepts, at which a formula leaves the float range or fails
EVALUATORS = [
    pytest.param(lambda: t0_schedule(1e-300, 1, 2, 0.1, 1000.0, C1=1.0, C2=1.0),
                 "t0_schedule(nu=1e-300, k=1, d=2, sigma=0.1, T=1000.0, C1=1.0, C2=1.0) is out of floating-point range",
                 id="t0_schedule-nu8-underflows"),
    pytest.param(lambda: t0_schedule(0.5, 1, 2, 1e200, 1000.0, C1=1.0, C2=1.0),
                 "t0_schedule(nu=0.5, k=1, d=2, sigma=1e+200, T=1000.0, C1=1.0, C2=1.0) is out of floating-point range",
                 id="t0_schedule-sigma2-overflows"),
    pytest.param(lambda: zeta_bound(100, 1, 2, 0.1, 5e-324),
                 "zeta_bound(n=100, k=1, d=2, sigma=0.1, delta=5e-324) is out of floating-point range",
                 id="zeta_bound-returns-inf"),
    pytest.param(lambda: alpha_bound(1e308, 10**6, 2),
                 "alpha_bound(zeta=1e+308, k=1000000, d=2) is out of floating-point range", id="alpha_bound-returns-inf"),
    pytest.param(lambda: h_bound(0.0, 1e200, 1, 3),
                 "h_bound(eta=0.0, eps=1e+200, k=1, d=3) is out of floating-point range", id="h_bound-eps3-overflows"),
    pytest.param(lambda: zeta_bound(1, 1, 1, 0.1, 1e300),
                 "zeta_bound(n=1, k=1, d=1, sigma=0.1, delta=1e+300) is undefined: the radicand is negative",
                 id="zeta_bound-negative-radicand"),
    pytest.param(lambda: h_bound(1.0, 0.001, 1, 3),
                 "h_bound(eta=1.0, eps=0.001, k=1, d=3) is vacuous: the denominator is nonpositive", id="h_bound-vacuous"),
]


def collapsed_state():
    state = LinearUcbState(2)
    state.logdet = -1e3  # below d log(lambda): the determinant ratio is under 1
    return state


def indefinite_state():
    state = LinearUcbState(3)
    state.gram = -np.eye(3)
    return state


def pending_agent():
    agent = RandomAgent()
    agent.select_arm(np.array([[1.0, 0.0]]), np.random.default_rng(0))
    return agent


# the failures that are not bad input
NOT_INPUT = [
    pytest.param(lambda: gen_instance(3, 2, 0.999, 0.1, np.random.default_rng(2)), RuntimeError,
                 r"no instance with separation 0\.999 found for k=3, d=2 in 10000 attempts", id="gen_instance"),
    pytest.param(lambda: RandomAgent().observe(0.0), RuntimeError, r"select_arm\(\) must be called before observe\(\)",
                 id="observe-before-select"),
    pytest.param(lambda: pending_agent().select_arm(np.array([[1.0, 0.0]]), np.random.default_rng(0)), RuntimeError,
                 r"observe\(\) must be called before the next select_arm\(\)", id="select-twice"),
    pytest.param(lambda: conf_radius(collapsed_state(), UCB), ArithmeticError,
                 "determinant ratio collapsed below 1; state is numerically broken", id="conf_radius"),
    pytest.param(lambda: ridge_update(indefinite_state(), np.zeros((1, 3)), [0.0]), ArithmeticError,
                 "Gram matrix lost positive definiteness", id="ridge_update-refactorization"),
]


@pytest.mark.parametrize("call,message", NOT_RANGES)
def test_not_a_range_raises_a_plain_valueerror(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and re.fullmatch(message, str(err.value)) is not None, str(err.value)


@pytest.mark.parametrize("call,message", EVALUATORS)
def test_evaluator_raises_a_valueerror_naming_the_call(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("call,base,message", NOT_INPUT)
def test_other_failures_raise_a_plain_builtin(call, base, message):
    with pytest.raises(base) as err:
        call()
    assert type(err.value) is base and re.fullmatch(message, str(err.value)) is not None, str(err.value)
