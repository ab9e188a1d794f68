"""Fixtures shared by the sampler and CLI tests. numpy is imported only inside them:
the golden digests are collected and checked where numpy is not installed."""

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


@pytest.fixture
def no_draws(monkeypatch) -> None:
    """Fail the test if the samplers build a generator: it must stop before anything is drawn."""
    import numpy as np

    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built although nothing may be drawn")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
