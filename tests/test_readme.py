"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    # the second block reuses the first one's rng and instance, so both share one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert float(capsys.readouterr().out) >= 0.0  # the first block prints the final cumulative regret
    assert namespace["est"].weights.shape == (3, 2)
