"""One range rule for every checked input: one row per field, argument or key.

A row names the input, a call that feeds it a value with every other input
valid, and the range the rule gives it: low, high, whether low itself is
excluded and whether the value must be an integer.  From the range the table
derives what it sends.  NaN, +inf, the nearest value outside its low end and,
where high is finite, high itself must raise a ValueError whose message starts
with the name; so must a bool and a float where an integer is required (a
bool is a number to Python, so the number rows take it as 0 or 1).  The value
on a closed bound, or a step of 2**-10 inside an open one, must pass.  The
CLI's JSON layer names a key of the wrong kind as "key 'name' in ...", which
also counts.

Checks that are not plain ranges have their own tests: ``UcbConfig.delta``'s
finite reciprocal, ``FitConfig.tol``'s open top, the instance's alpha0
separation bound, ``h_bound``'s d >= 3 and ``zeta_bound`` accepting delta >= 1.
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
    Instance,
    OfuReluConfig,
    OfuReluPlusConfig,
    RandomConfig,
    ReluNetwork,
    UcbConfig,
    alpha_bound,
    fit_erm,
    gen_instance,
    h_bound,
    run_trial,
    sample_arms,
    t0_schedule,
    zeta_bound,
)
from relu_bandits import cli
from relu_bandits.errors import _require
from relu_bandits.linear_ucb import LAMBDA_MIN, LinearUcbState

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
    OfuReluPlusConfig(nu0=nu0, T1=T1, a=a, b=b, ucb=UCB, fit=FIT, C1=C1, C2=C2, practical_override=practical_override)


def ucb(sigma=0.1, S=1.0, delta=0.1, lam=1.0):
    UcbConfig(sigma=sigma, S=S, delta=delta, lam=lam)


def instance(k=2, d=2, alpha0=0.0, sigma=0.1):
    gen_instance(k, d, alpha0, sigma, np.random.default_rng(0))


def arms(m=1, d=2):
    sample_arms(m, d, np.random.default_rng(0))


def trial(T=1):
    inst = Instance(truth=ReluNetwork(np.array([[1.0, 0.0]])), sigma=0.1)
    run_trial(inst, RandomConfig(), T, 2, np.random.default_rng(0))


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
    *rows("FitConfig", FitConfig, ("step_size", 0.0), strict=True),
    Row("fit_erm", "k", lambda k: fit_erm([[1.0, 0.0]], [0.0], k, FIT), 1, integer=True),
    *rows("zeta_bound", zeta, ("k", 1), ("d", 1), integer=True),
    *rows("zeta_bound", zeta, ("n", 1), ("sigma", 0.0)),
    *rows("zeta_bound", zeta, ("delta", 0.0), strict=True),
    *rows("alpha_bound", alpha, ("k", 1), ("d", 1), integer=True),
    *rows("alpha_bound", alpha, ("zeta", 0.0)),
    *rows("h_bound", h, ("k", 1), integer=True),  # d: the rule's d >= 1, then UnsupportedDimensionError below 3
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
    *rows("UcbConfig", ucb, ("S", 0.0), ("delta", 0.0, 1.0), strict=True),
    Row("LinearUcbState", "dim", LinearUcbState, 1, integer=True),
    Row("LinearUcbState", "lambda", lambda v: LinearUcbState(2, v), LAMBDA_MIN),
    *rows("gen_instance", instance, ("k", 1), ("d", 2), integer=True),
    *rows("gen_instance", instance, ("sigma", 0.0), ("alpha0", 0.0)),
    *rows("sample_arms", arms, ("m", 1), ("d", 2), integer=True),
    *rows("run_trial", trial, ("T", 1), integer=True),
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
    values = {"nan": math.nan, "inf": math.inf, "below": below}
    if row.integer:
        values.update(bool=True, float=float(row.low))
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
    with pytest.raises(ValueError, match=rf"^(key ')?{re.escape(row.name)}\b"):
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
    ],
)
def test_message_form(args, kw, message):
    with pytest.raises(ValueError) as err:
        _require(*args, **kw)
    assert str(err.value) == message
