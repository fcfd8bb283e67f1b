"""Tests for the incremental (delta) evaluation kernel.

The runtime engine evaluates every move cold; :mod:`repro.engine.delta`
stays as library code.  The contract under test: for any parent design
and any transformation, evaluating the child through the delta path
produces an outcome **bit-identical** to a cold evaluation -- schedule
occupancy, metrics, validity verdicts, failure reasons, and even the
recorded column trace (so children chain as parents).  Plus: move
footprints, the engine's cold move API against the delta kernel, and
seeded strategy equivalence between the runtime engine and
:class:`DeltaEngine`, an engine whose moves the delta kernel serves.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.improvement import DescentParams, steepest_descent
from repro.core.initial_mapping import InitialMapper
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
    remap_moves,
)
from kernel_oracle import occupancy, trace_identity
from repro.engine import EngineConfig, EvaluationEngine, evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.core import mapping_heuristic, simulated_annealing
from repro.engine.delta import DeltaEvaluator
from repro.gen import families
from repro.sched.list_scheduler import ListScheduler

CACHE_OFF = EngineConfig(use_cache=False)


class DeltaEngine(EvaluationEngine):
    """The evaluation engine with every move served by the delta kernel.

    Cold evaluations record the column trace, and each move's child is
    rescheduled from its parent's checkpoints (what the runtime did
    before moves were evaluated cold).  Cache accounting is the base
    engine's; ``delta_used`` counts the moves the incremental path
    served.
    """

    def __init__(self, spec, *args, **kwargs):
        super().__init__(spec, *args, **kwargs)
        self.delta = DeltaEvaluator(self.compiled, self.timings)
        self.delta_used = 0

    def _solve(self, design):
        return evaluate_candidate(
            self.compiled, design, record_trace=True, timings=self.timings
        )

    def evaluate_move(self, parent, move):
        return self.evaluate_moves(parent, [move])[0]

    def evaluate_moves(self, parent, moves):
        self._ensure_open()
        moves = list(moves)
        children = [move.apply(parent.design) for move in moves]
        self.evaluations += len(children)

        def solve(i):
            outcome, used = self.delta.evaluate_move(
                parent, moves[i], children[i]
            )
            self.delta_used += used
            return outcome

        if self.cache is None:
            return [solve(i) for i in range(len(moves))]
        return self._cached_batch(
            [self.compiled.signature(child) for child in children], solve
        )


def delta_engines(monkeypatch):
    """Make MH and SA build :class:`DeltaEngine` instead of the runtime one."""
    for module in (mapping_heuristic, simulated_annealing):
        monkeypatch.setattr(module, "EvaluationEngine", DeltaEngine)


def column_trace(compiled, outcome):
    """An outcome's recorded column trace as a :class:`ScheduleTrace`."""
    return trace_identity(compiled.arrays.to_schedule_trace(outcome.trace))


def im_parent(spec, compiled):
    """A traced parent evaluation at the Initial Mapping."""
    mapper = InitialMapper(spec.architecture)
    outcome = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    mapping, _ = outcome
    parent = evaluate_candidate(
        compiled,
        CandidateDesign(mapping, dict(compiled.default_priorities)),
        record_trace=True,
    )
    assert parent is not None
    return parent


def systematic_moves(spec, parent, limit_delays: int = 8):
    """Every remap, a ladder of swaps, and message delays up/down."""
    moves = list(
        remap_moves(parent.design.mapping, [p.id for p in spec.current.processes])
    )
    pids = [p.id for p in spec.current.processes]
    moves.extend(
        SwapPriorities(a, b) for a, b in zip(pids, pids[1:])
    )
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return moves


@pytest.fixture(scope="module")
def kernel(spec):
    compiled = CompiledSpec(spec)
    return compiled, DeltaEvaluator(compiled)


class TestFootprints:
    def test_remap_includes_colocated_senders_only(self, spec, kernel):
        compiled, _ = kernel
        parent = im_parent(spec, compiled)
        mapping = parent.design.mapping
        for process in spec.current.processes:
            current_node = mapping.node_of(process.id)
            for node_id in process.allowed_nodes:
                if node_id == current_node:
                    continue
                fp = RemapProcess(process.id, node_id).footprint(parent.design)
                assert process.id in fp.processes
                assert fp.nodes == {current_node, node_id}
                graph = spec.current.graph_of(process.id)
                for msg in graph.in_messages(process.id):
                    src_node = mapping.node_of(msg.src)
                    expected = src_node in (current_node, node_id)
                    assert (msg.src in fp.processes) == expected

    def test_swap_footprint_is_priority_only(self, spec, kernel):
        compiled, _ = kernel
        parent = im_parent(spec, compiled)
        pids = [p.id for p in spec.current.processes]
        fp = SwapPriorities(pids[0], pids[1]).footprint(parent.design)
        assert fp.reprioritized == {pids[0], pids[1]}
        assert not fp.processes

    def test_delay_footprint_is_the_sender(self, spec, kernel):
        compiled, _ = kernel
        parent = im_parent(spec, compiled)
        msg = spec.current.messages[0]
        fp = DelayMessage(msg.id, +1).footprint(parent.design)
        assert fp.processes == {msg.src}
        assert fp.messages == {msg.id}


class TestDeltaEqualsCold:
    def test_systematic_neighbourhood(self, spec, kernel):
        compiled, delta = kernel
        parent = im_parent(spec, compiled)
        used = 0
        for move in systematic_moves(spec, parent):
            child = move.apply(parent.design)
            cold = evaluate_candidate(compiled, child, record_trace=True)
            out, via_delta = delta.evaluate_move(parent, move, child)
            used += via_delta
            assert (cold is None) == (out is None), move.describe()
            if cold is None:
                continue
            assert occupancy(cold.schedule) == occupancy(out.schedule)
            assert cold.metrics == out.metrics
            assert column_trace(compiled, cold) == column_trace(compiled, out)
        assert used > 0  # the incremental path actually ran

    def test_chained_generations(self, spec, kernel):
        """Delta children serve as parents: a whole walk stays exact."""
        compiled, delta = kernel
        current = im_parent(spec, compiled)
        import random

        rng = random.Random(11)
        pids = [p.id for p in spec.current.processes]
        messages = [m.id for m in spec.current.messages]
        for _ in range(60):
            roll = rng.random()
            if roll < 0.5:
                pid = rng.choice(pids)
                options = [
                    n
                    for n in spec.current.process(pid).allowed_nodes
                    if n != current.design.mapping.node_of(pid)
                ]
                if not options:
                    continue
                move = RemapProcess(pid, rng.choice(options))
            elif roll < 0.85 or not messages:
                move = SwapPriorities(*rng.sample(pids, 2))
            else:
                move = DelayMessage(rng.choice(messages), rng.choice([1, -1]))
            child = move.apply(current.design)
            cold = evaluate_candidate(compiled, child, record_trace=True)
            out, _ = delta.evaluate_move(current, move, child)
            assert (cold is None) == (out is None)
            if cold is not None:
                assert occupancy(cold.schedule) == occupancy(out.schedule)
                assert cold.metrics == out.metrics
                assert column_trace(compiled, cold) == column_trace(
                    compiled, out
                )
                current = out

    def test_failure_reasons_match(self):
        """Invalid children report the cold run's exact failure."""
        from repro.gen.scenario import ScenarioParams, build_scenario

        # A tight current application: the IM start is valid, but a
        # good share of the remap neighbourhood misses deadlines.
        scenario = build_scenario(
            ScenarioParams(
                n_existing=14, n_current=10, current_utilization=0.3
            ),
            seed=4,
        )
        spec = scenario.spec()
        compiled = CompiledSpec(spec)
        scheduler = ListScheduler(spec.architecture)
        delta = DeltaEvaluator(compiled)
        parent = im_parent(spec, compiled)
        checked = 0
        for move in systematic_moves(spec, parent, limit_delays=20):
            child = move.apply(parent.design)
            cold = scheduler.try_schedule(
                spec.current,
                child.mapping,
                priorities=child.priorities,
                message_delays=child.message_delays,
                compiled=compiled,
            )
            if cold.success:
                continue
            resumed = delta.try_resume_arrays(parent, move, child)
            if resumed is None:
                continue  # fell back; cold path is the delta path
            assert not resumed.success
            assert resumed.failure_reason == cold.failure_reason
            assert resumed.scheduled == cold.scheduled_jobs
            assert resumed.total == cold.total_jobs
            checked += 1
        assert checked > 0, "scenario produced no invalid children to compare"


class TestEngineMoveAPI:
    def test_evaluate_move_matches_evaluate(self, spec):
        """The engine's cold move path equals the delta kernel's outcome
        and the engine's own evaluate, with plain cache accounting."""
        with EvaluationEngine(spec) as moves_engine, EvaluationEngine(
            spec
        ) as plain:
            parent = im_parent(spec, moves_engine.compiled)
            delta = DeltaEvaluator(moves_engine.compiled)
            moves = systematic_moves(spec, parent)
            served = 0
            for move in moves:
                a = moves_engine.evaluate_move(parent, move)
                b = plain.evaluate(move.apply(parent.design))
                c, used = delta.evaluate_move(parent, move)
                served += used
                assert (a is None) == (b is None) == (c is None)
                if a is not None:
                    assert a.metrics == b.metrics == c.metrics
                    assert occupancy(a.schedule) == occupancy(c.schedule)
                    assert a.trace is None  # cold outcomes keep no trace
            assert served > 0  # the delta kernel ran incrementally
            # identical cache accounting on both engines
            assert (
                moves_engine.cache_stats().lookups
                == plain.cache_stats().lookups
                == len(moves)
            )
            assert moves_engine.cache_stats().hits == plain.cache_stats().hits
            counters = moves_engine.counters()
            assert counters.delta_hits == counters.delta_fallbacks == 0

    def test_evaluate_moves_matches_evaluate_many(self, spec):
        with EvaluationEngine(spec) as a, EvaluationEngine(spec) as b:
            parent = im_parent(spec, a.compiled)
            moves = systematic_moves(spec, parent)
            moves = moves + moves[:5]  # duplicates exercise the dedup plan
            res_a = a.evaluate_moves(parent, moves)
            res_b = b.evaluate_many([m.apply(parent.design) for m in moves])
            assert len(res_a) == len(res_b) == len(moves)
            for x, y in zip(res_a, res_b):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.metrics == y.metrics
            assert a.cache_stats().hits == b.cache_stats().hits
            assert a.cache_stats().misses == b.cache_stats().misses

    def test_uncached_batch_matches_single_moves_and_stats(self, spec):
        with EvaluationEngine(spec, CACHE_OFF) as single, EvaluationEngine(
            spec, CACHE_OFF
        ) as batched:
            parent_s = im_parent(spec, single.compiled)
            parent_b = im_parent(spec, batched.compiled)
            moves = systematic_moves(spec, parent_s)
            res_s = [single.evaluate_move(parent_s, m) for m in moves]
            res_b = batched.evaluate_moves(parent_b, moves)
            for x, y in zip(res_s, res_b):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.metrics == y.metrics
                    assert occupancy(x.schedule) == occupancy(y.schedule)
                    # cold outcomes carry no delta attachment
                    assert x.trace is None and y.trace is None
            assert single.counters().evaluations == len(moves)
            assert batched.counters().evaluations == len(moves)

    def test_closed_engine_refuses_move_evaluation(self, spec):
        engine = EvaluationEngine(spec)
        parent = im_parent(spec, engine.compiled)
        move = systematic_moves(spec, parent)[0]
        engine.close()
        with pytest.raises(RuntimeError):
            engine.evaluate_move(parent, move)
        with pytest.raises(RuntimeError):
            engine.evaluate_moves(parent, [move])

    def test_traceless_parent_falls_back(self, spec):
        """Without a parent trace the delta kernel falls back to a cold
        evaluation, which is what the engine runs for every move."""
        with EvaluationEngine(spec, CACHE_OFF) as engine:
            parent = im_parent(spec, engine.compiled)
            parent.trace = None
            move = systematic_moves(spec, parent)[0]
            out = engine.evaluate_move(parent, move)
            cold = engine.evaluate(move.apply(parent.design))
            fallback, used = DeltaEvaluator(engine.compiled).evaluate_move(
                parent, move
            )
            assert not used
            assert (out is None) == (cold is None) == (fallback is None)
            if out is not None:
                assert out.metrics == cold.metrics == fallback.metrics


class TestSteepestDescentDelta:
    def test_descent_identical_with_delta_and_cache_off(self, spec):
        """The runtime (cold moves) descent equals the delta-served one,
        with the cache on and off."""

        def run(engine=EvaluationEngine, config=EngineConfig()):
            with engine(spec, config) as evaluator:
                parent = im_parent(spec, evaluator.compiled)
                best = steepest_descent(
                    spec, evaluator, parent, DescentParams(max_iterations=6)
                )
                return (
                    tuple(sorted(best.design.mapping.as_dict().items())),
                    tuple(sorted(best.design.priorities.items())),
                    tuple(sorted(best.design.message_delays.items())),
                    best.objective,
                )

        reference = run()
        assert run(DeltaEngine) == reference
        assert run(config=CACHE_OFF) == reference
        assert run(DeltaEngine, CACHE_OFF) == reference


# ----------------------------------------------------------------------
# property tests across every registered scenario family
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _family_fixture(family_name: str, seed: int):
    """Built scenario + compiled kernel for one (family, seed) cell."""
    family = families.get_family(family_name)
    scenario = family.build(family.smallest_preset, seed=seed)
    spec = scenario.spec()
    compiled = CompiledSpec(spec)
    delta = DeltaEvaluator(compiled)
    parent = im_parent(spec, compiled)
    return spec, compiled, delta, parent


@pytest.mark.parametrize("family_name", families.family_names())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_delta_equals_cold_property(family_name, data):
    """Random move sequences on every family: delta == cold, chained."""
    seed = data.draw(st.sampled_from([1, 2]), label="scenario seed")
    spec, compiled, delta, parent = _family_fixture(family_name, seed)
    pids = [p.id for p in spec.current.processes]
    messages = [m.id for m in spec.current.messages]
    current = parent
    n_moves = data.draw(st.integers(min_value=1, max_value=5), label="moves")
    for _ in range(n_moves):
        kind = data.draw(
            st.sampled_from(
                ["remap", "swap", "delay"] if messages else ["remap", "swap"]
            ),
            label="kind",
        )
        if kind == "remap":
            pid = data.draw(st.sampled_from(pids), label="pid")
            options = [
                n
                for n in spec.current.process(pid).allowed_nodes
                if n != current.design.mapping.node_of(pid)
            ]
            if not options:
                continue
            move = RemapProcess(
                pid, data.draw(st.sampled_from(options), label="node")
            )
        elif kind == "swap":
            if len(pids) < 2:
                continue
            first = data.draw(st.sampled_from(pids), label="first")
            second = data.draw(st.sampled_from(pids), label="second")
            if first == second:
                continue
            move = SwapPriorities(first, second)
        else:
            move = DelayMessage(
                data.draw(st.sampled_from(messages), label="message"),
                data.draw(st.sampled_from([1, -1]), label="delta"),
            )
        child = move.apply(current.design)
        cold = evaluate_candidate(compiled, child, record_trace=True)
        out, _ = delta.evaluate_move(current, move, child)
        assert (cold is None) == (out is None), move.describe()
        if cold is None:
            continue
        assert occupancy(cold.schedule) == occupancy(out.schedule)
        assert cold.metrics == out.metrics
        assert column_trace(compiled, cold) == column_trace(compiled, out)
        current = out


# ----------------------------------------------------------------------
# seeded strategy runs: byte-identical on the runtime engine and on
# DeltaEngine, cache on/off
# ----------------------------------------------------------------------
class TestSeededStrategyEquivalence:
    @pytest.mark.parametrize("family_name", ["uniform-baseline", "pipeline"])
    def test_mh_identical_delta_on_off(self, family_name, monkeypatch):
        from repro.experiments.runner import design_identity

        family = families.get_family(family_name)
        spec = family.build(family.smallest_preset, seed=1).spec()
        reference = design_identity(MappingHeuristic().design(spec))
        delta_engines(monkeypatch)
        assert design_identity(MappingHeuristic().design(spec)) == reference

    def test_sa_identical_delta_on_off(self, spec, monkeypatch):
        from repro.experiments.runner import design_identity

        reference = design_identity(
            SimulatedAnnealing(iterations=120, seed=3).design(spec)
        )
        assert design_identity(
            SimulatedAnnealing(iterations=120, seed=3, engine=CACHE_OFF)
            .design(spec)
        ) == reference
        delta_engines(monkeypatch)
        assert design_identity(
            SimulatedAnnealing(iterations=120, seed=3).design(spec)
        ) == reference