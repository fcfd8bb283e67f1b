"""Fixtures for the evaluation-engine tests: one small seeded scenario,
its Initial Mapping design and a one-move neighbourhood around it."""

from __future__ import annotations

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignSpec
from repro.core.transformations import CandidateDesign, RemapProcess, SwapPriorities
from repro.gen.scenario import Scenario, ScenarioParams, build_scenario
from repro.sched.priorities import hcp_priorities


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    """A small but non-trivial scenario (frozen base + current app)."""
    return build_scenario(
        ScenarioParams(n_existing=12, n_current=8), seed=3
    )


@pytest.fixture(scope="module")
def spec(scenario) -> DesignSpec:
    return scenario.spec()


@pytest.fixture(scope="module")
def start(spec):
    """The Initial Mapping design, with HCP priorities."""
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule
    )
    return CandidateDesign(
        mapping, hcp_priorities(spec.current, spec.architecture.bus)
    )


@pytest.fixture(scope="module")
def moves(spec, start):
    """Remap moves of the first processes plus one priority swap."""
    out = []
    processes = spec.current.processes
    for proc in processes[:4]:
        for node in proc.allowed_nodes:
            if node != start.mapping.node_of(proc.id):
                out.append(RemapProcess(proc.id, node))
    out.append(SwapPriorities(processes[0].id, processes[-1].id))
    return out


@pytest.fixture(scope="module")
def neighbourhood(start, moves):
    """The start design and its one-move children."""
    return [start] + [move.apply(start) for move in moves]
