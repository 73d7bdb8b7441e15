"""The README's library examples run as written, on the names the package root exports."""

import importlib
import re
from pathlib import Path

import relu_bandits

README = Path(__file__).resolve().parent.parent / "README.md"

# what configures, runs, scores and writes an experiment; the agents, the UCB
# engine and the per-round kernels are imported from their modules
ROOT_NAMES = [
    # the config dataclasses
    "FitConfig", "OfuReluConfig", "OfuReluPlusConfig", "OfulConfig", "RandomConfig", "UcbConfig",
    # the data types
    "AggregateResult", "Instance", "ReluNetwork", "TrialTrace",
    # drawing, running, fitting and scoring
    "aggregate", "eval_f_batch", "fit_erm", "gen_instance", "match_neurons", "run_trial", "sample_arms",
    # the bound evaluators a run configures or reports
    "alpha_bound", "t0_schedule", "zeta_bound",
    # the writers
    "emit_svg", "export_csv", "write_summary",
]
BUILDING_BLOCKS = {
    "agents": ["OfulAgent", "OfuReluAgent", "RandomAgent", "build_batch_grid", "make_agent"],
    "estimation": ["h_bound"],
    "linear_ucb": ["LinearUcbState", "conf_radius", "ridge_update", "ucb_select"],
    "relu_model": ["exact_argmax_2d", "margin_mask", "sign_robust_features_batch"],
}


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_python_blocks_run_in_order(capsys):
    # the second block reuses the first one's rng and instance, so both share one namespace
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert float(capsys.readouterr().out) >= 0.0  # the first block prints the final cumulative regret
    assert namespace["est"].weights.shape == (3, 2)


def test_package_root_exports_the_library():
    assert sorted(relu_bandits.__all__) == sorted(ROOT_NAMES)
    assert len(ROOT_NAMES) == 23
    for name in ROOT_NAMES:
        getattr(relu_bandits, name)
    for module, names in BUILDING_BLOCKS.items():  # importable from their modules only
        for name in names:
            getattr(importlib.import_module(f"relu_bandits.{module}"), name)
            assert not hasattr(relu_bandits, name), name
    imported = set()
    for block in _python_blocks():
        for group in re.findall(r"^from relu_bandits import (\([^)]*\)|.*)$", block, re.M):
            imported.update(n.strip() for n in group.strip("()").split(",") if n.strip())
    assert imported and imported <= set(ROOT_NAMES)
