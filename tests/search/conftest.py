"""Shared fixtures for the search-kernel tests."""

from __future__ import annotations

import pytest

from searchutil import small_scenario, start_of

from repro.engine import EvaluationEngine


@pytest.fixture(scope="module")
def scenario():
    return small_scenario()


@pytest.fixture(scope="module")
def spec(scenario):
    return scenario.spec()


@pytest.fixture(scope="module")
def evaluator(spec):
    with EvaluationEngine(spec) as shared:
        yield shared


@pytest.fixture(scope="module")
def start(spec, evaluator):
    return start_of(spec, evaluator)
