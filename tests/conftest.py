"""Fixtures shared by the sampler tests. numpy is imported only inside them: the
golden digests are collected and checked where numpy is not installed."""

import pytest


@pytest.fixture
def generators(monkeypatch) -> list:
    """Every generator the samplers build, in order."""
    import numpy as np

    default_rng, made = np.random.default_rng, []

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made
