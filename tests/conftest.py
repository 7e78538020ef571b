"""Fixtures every test module shares."""

import pytest

import dpmeter.experiment as experiment


@pytest.fixture(autouse=True)
def cold_group_memo():
    """Start each test with ``run_experiment``'s group memo empty, so a
    test sees the panel built, and counts the calls that build it, as a
    fresh process would."""
    experiment._built_group.cache_clear()
