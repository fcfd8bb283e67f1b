"""Tests for the shared steepest-descent machinery."""

import pytest

from repro.core.improvement import (
    DescentParams,
    best_improving_move,
    generate_moves,
    schedule_neighbours,
    select_candidates,
    steepest_descent,
)
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import EvaluationEngine
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.sched.priorities import hcp_priorities
from repro.core.initial_mapping import InitialMapper


@pytest.fixture(scope="module")
def setup():
    params = ScenarioParams(n_nodes=3, hyperperiod=2400,
                            n_existing=15, n_current=8)
    scenario = build_scenario(params, seed=2)
    spec = scenario.spec()
    mapper = InitialMapper(scenario.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        scenario.current, base=scenario.base_schedule
    )
    evaluator = EvaluationEngine(spec)
    start = evaluator.evaluate(
        CandidateDesign(
            mapping, hcp_priorities(scenario.current, scenario.architecture.bus)
        )
    )
    assert start is not None
    return scenario, spec, evaluator, start


class TestCandidateSelection:
    def test_pool_size_respected(self, setup):
        _, spec, _, start = setup
        assert len(select_candidates(spec, start, 3)) == 3

    def test_pool_larger_than_app(self, setup):
        scenario, spec, _, start = setup
        candidates = select_candidates(spec, start, 999)
        assert len(candidates) == scenario.current.process_count

    def test_candidates_are_current_processes(self, setup):
        scenario, spec, _, start = setup
        for pid in select_candidates(spec, start, 5):
            assert pid in scenario.current

    def test_deterministic(self, setup):
        _, spec, _, start = setup
        assert select_candidates(spec, start, 5) == select_candidates(
            spec, start, 5
        )


class TestMoveGeneration:
    def test_moves_reference_current_app_only(self, setup):
        scenario, spec, _, start = setup
        moves = generate_moves(spec, start, DescentParams(pool_size=4))
        for move in moves:
            if isinstance(move, RemapProcess):
                assert move.process_id in scenario.current
            elif isinstance(move, SwapPriorities):
                assert move.first in scenario.current
                assert move.second in scenario.current
            elif isinstance(move, DelayMessage):
                assert scenario.current.message(move.message_id)

    def test_remaps_only_to_allowed_other_nodes(self, setup):
        scenario, spec, _, start = setup
        moves = generate_moves(spec, start, DescentParams(pool_size=4))
        for move in moves:
            if isinstance(move, RemapProcess):
                proc = scenario.current.process(move.process_id)
                assert move.node_id in proc.allowed_nodes
                assert move.node_id != start.mapping.node_of(move.process_id)

    def test_message_moves_can_be_disabled(self, setup):
        _, spec, _, start = setup
        moves = generate_moves(
            spec, start, DescentParams(pool_size=8, use_message_moves=False)
        )
        assert not any(isinstance(m, DelayMessage) for m in moves)


class TestNeighbours:
    def test_neighbours_share_node(self, setup):
        scenario, spec, _, start = setup
        for pid in select_candidates(spec, start, 4):
            node = start.mapping.node_of(pid)
            for n in schedule_neighbours(spec, start.schedule, pid, node):
                assert start.mapping.node_of(n) == node


class TestDescent:
    def test_descent_monotone(self, setup):
        _, spec, evaluator, start = setup
        result = steepest_descent(spec, evaluator, start, DescentParams(max_iterations=6))
        assert result.objective <= start.objective

    def test_descent_zero_iterations_is_start(self, setup):
        _, spec, evaluator, start = setup
        result = steepest_descent(
            spec, evaluator, start, DescentParams(max_iterations=0)
        )
        assert result is start

    def test_best_improving_none_when_no_moves(self, setup):
        _, _, evaluator, start = setup
        assert best_improving_move(evaluator, start, [], 1e-9) is None

    def test_best_improving_returns_strict_improvement(self, setup):
        _, spec, evaluator, start = setup
        moves = generate_moves(spec, start, DescentParams(pool_size=6))
        winner = best_improving_move(evaluator, start, moves, 1e-9)
        if winner is not None:
            assert winner.objective < start.objective
