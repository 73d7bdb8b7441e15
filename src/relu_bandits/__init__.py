"""Stochastic bandits with sums-of-ReLU rewards.

The library splits into: the reward model and its lifted feature maps
(relu_model), neuron recovery by ERM plus the theory bound evaluators
(estimation), a self-contained linear UCB engine (linear_ucb), the bandit
policies built on top (agents), the experiment harness (harness), artifact
writers (reporting) and a CLI (cli).

The package root exports what configures, runs, scores and writes an
experiment.  The agents, the UCB engine and the per-round kernels are
imported from their modules.
"""

from .agents import OfulConfig, OfuReluConfig, OfuReluPlusConfig, RandomConfig
from .estimation import FitConfig, alpha_bound, fit_erm, match_neurons, t0_schedule, zeta_bound
from .harness import AggregateResult, Instance, TrialTrace, aggregate, gen_instance, run_trial, sample_arms
from .linear_ucb import UcbConfig
from .relu_model import ReluNetwork, eval_f_batch
from .reporting import emit_svg, export_csv, write_summary

__all__ = [
    "AggregateResult",
    "FitConfig",
    "Instance",
    "OfulConfig",
    "OfuReluConfig",
    "OfuReluPlusConfig",
    "RandomConfig",
    "ReluNetwork",
    "TrialTrace",
    "UcbConfig",
    "aggregate",
    "alpha_bound",
    "emit_svg",
    "eval_f_batch",
    "export_csv",
    "fit_erm",
    "gen_instance",
    "match_neurons",
    "run_trial",
    "sample_arms",
    "t0_schedule",
    "write_summary",
    "zeta_bound",
]

__version__ = "0.1.0"
