"""Stochastic bandits with sums-of-ReLU rewards.

The library splits into: the reward model and its lifted feature maps
(relu_model), neuron recovery by ERM plus the theory bound evaluators
(estimation), a self-contained linear UCB engine (linear_ucb), the bandit
policies built on top (agents), the experiment harness (harness), artifact
writers (reporting) and a CLI (cli).
"""

from .agents import (
    OfulAgent,
    OfulConfig,
    OfuReluAgent,
    OfuReluConfig,
    OfuReluPlusConfig,
    RandomAgent,
    RandomConfig,
    build_batch_grid,
    make_agent,
)
from .errors import (
    BoundVacuousError,
    ConfigError,
    DimensionMismatchError,
    FitError,
    GenerationError,
    NumericError,
    ProtocolError,
    UnsupportedDimensionError,
)
from .estimation import (
    BoundParams,
    FitConfig,
    alpha_bound,
    fit_erm,
    h_bound,
    match_neurons,
    t0_schedule,
    zeta_bound,
)
from .harness import (
    AggregateResult,
    Instance,
    TrialTrace,
    aggregate,
    gen_instance,
    run_trial,
    sample_arms,
)
from .linear_ucb import LinearUcbState, UcbConfig, conf_radius, ridge_update, ucb_select
from .relu_model import (
    ReluNetwork,
    eval_f_batch,
    exact_argmax_2d,
    margin_mask,
    sign_robust_features_batch,
)
from .reporting import emit_svg, export_csv, write_summary

__all__ = [
    "AggregateResult",
    "BoundParams",
    "BoundVacuousError",
    "ConfigError",
    "DimensionMismatchError",
    "FitConfig",
    "FitError",
    "GenerationError",
    "Instance",
    "LinearUcbState",
    "NumericError",
    "OfulAgent",
    "OfulConfig",
    "OfuReluAgent",
    "OfuReluConfig",
    "OfuReluPlusConfig",
    "ProtocolError",
    "RandomAgent",
    "RandomConfig",
    "ReluNetwork",
    "TrialTrace",
    "UcbConfig",
    "UnsupportedDimensionError",
    "aggregate",
    "alpha_bound",
    "build_batch_grid",
    "conf_radius",
    "emit_svg",
    "eval_f_batch",
    "exact_argmax_2d",
    "export_csv",
    "fit_erm",
    "gen_instance",
    "h_bound",
    "margin_mask",
    "match_neurons",
    "make_agent",
    "ridge_update",
    "run_trial",
    "sample_arms",
    "sign_robust_features_batch",
    "t0_schedule",
    "ucb_select",
    "write_summary",
    "zeta_bound",
]

__version__ = "0.1.0"
