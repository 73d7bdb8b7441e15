import os
import sys

import pytest

from relu_bandits import harness

sys.path.insert(0, os.path.dirname(__file__))  # so tests can import oracles.py


@pytest.fixture
def patch_trial(monkeypatch):
    """Steer ``run_trial`` through its two seams for the rest of a test.

    ``patch_trial(arms=A)`` offers the (m, d) unit rows ``A`` every round in
    place of a fresh ``sample_arms`` draw, so the comparator is the global
    best on ``A``; ``patch_trial(agent=a)`` plays the prebuilt agent ``a`` in
    place of the one ``make_agent`` builds from the config.  ``run_trial``
    still splits its generator into the same three streams, so the reward
    noise and the agent's draws do not depend on which seam is patched.
    """

    def patch(*, arms=None, agent=None):
        if arms is not None:
            monkeypatch.setattr(harness, "sample_arms", lambda m, d, rng: arms)
        if agent is not None:
            monkeypatch.setattr(harness, "make_agent", lambda cfg, k, d, T: agent)

    return patch
