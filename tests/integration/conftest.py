"""Fixtures shared by the integration tests."""

import functools

import pytest

from tests.integration.test_experiment_digest import run_experiments


@pytest.fixture(scope="session")
def experiment_runs():
    """``experiment_runs(seed, scale)``: :func:`run_experiments`, made
    at most once per seed and scale in a session.  The SMALL experiment
    digest and the paper-shape checks read the same run."""
    return functools.lru_cache(maxsize=None)(run_experiments)
