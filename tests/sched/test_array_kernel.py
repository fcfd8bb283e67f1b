"""Tests for the structure-of-arrays scheduler core (the runtime core).

The contract under test: the array kernel of :mod:`repro.sched.arrays`
is **byte-identical** to the object kernel, which stays as the test
oracle (:mod:`kernel_oracle`) -- schedules, decoded traces, metrics,
failure reasons and delta chains match on every registered scenario
family, and every candidate a seeded strategy run visits matches the
oracle.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    assert_matches_oracle,
    assert_search_matches_oracle,
    occupancy,
    record_candidates,
)
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
from repro.engine import EngineConfig, evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.gen import families
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.sched import ckernel
from repro.sched.list_scheduler import ListScheduler
from repro.sched.trace import heap_key


@pytest.fixture(scope="module")
def spec():
    """A small but non-trivial scenario (frozen base + current app)."""
    return build_scenario(
        ScenarioParams(n_existing=12, n_current=8), seed=3
    ).spec()


def im_design(spec, compiled):
    """The Initial Mapping candidate (the start of every search)."""
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    return CandidateDesign(outcome[0], dict(compiled.default_priorities))


def systematic_moves(spec, design, limit_delays: int = 8):
    """Every remap, a ladder of swaps, and message delays up/down."""
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))
    moves.extend(SwapPriorities(a, b) for a, b in zip(pids, pids[1:]))
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return moves


# ----------------------------------------------------------------------
# the integer heap key is order-isomorphic to the legacy tuple key
# ----------------------------------------------------------------------
class TestRankIsomorphism:
    def test_rank_order_equals_legacy_heap_key_order(self, spec):
        compiled = CompiledSpec(spec)
        arr = compiled.arrays
        design = im_design(spec, compiled)
        cand = arr.lower_candidate(design)
        jobs = compiled.job_table.jobs
        legacy = sorted(
            range(arr.n_jobs),
            key=lambda j: heap_key(
                jobs[arr.job_keys[j]], design.priorities
            ),
        )
        assert cand.job_of_rank == legacy
        assert [cand.rank_of_job[j] for j in cand.job_of_rank] == list(
            range(arr.n_jobs)
        )


# ----------------------------------------------------------------------
# cold equivalence on every registered family
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _family_cell(family_name: str, seed: int):
    family = families.get_family(family_name)
    spec = family.build(family.smallest_preset, seed=seed).spec()
    return spec, CompiledSpec(spec)


@pytest.mark.parametrize("family_name", families.family_names())
@pytest.mark.parametrize("seed", [1, 2])
def test_cold_equivalence_on_family(family_name, seed):
    """Schedules, traces and metrics match the oracle on the IM
    neighbourhood."""
    spec, compiled = _family_cell(family_name, seed)
    arr = compiled.arrays
    design = im_design(spec, compiled)
    compared = 0
    for child in [design] + [
        m.apply(design) for m in systematic_moves(spec, design)
    ]:
        fast = evaluate_candidate(compiled, child, record_trace=True)
        assert_matches_oracle(spec, child, fast, arr)
        compared += fast is not None
    assert compared > 0


def test_failure_reasons_match():
    """Invalid children report the object kernel's exact failure string."""
    spec = build_scenario(
        ScenarioParams(n_existing=14, n_current=10, current_utilization=0.3),
        seed=4,
    ).spec()
    compiled = CompiledSpec(spec)
    arr = compiled.arrays
    scheduler = ListScheduler(spec.architecture)
    design = im_design(spec, compiled)
    failures = 0
    for move in systematic_moves(spec, design, limit_delays=20):
        child = move.apply(design)
        cold = scheduler.try_schedule(
            spec.current,
            child.mapping,
            priorities=child.priorities,
            message_delays=child.message_delays,
            compiled=compiled,
        )
        state = arr.schedule_design(child)
        assert state.success == cold.success, move.describe()
        if cold.success:
            continue
        assert state.failure_reason == cold.failure_reason
        assert state.scheduled == cold.scheduled_jobs
        assert state.total == cold.total_jobs
        failures += 1
    assert failures > 0, "scenario produced no invalid children to compare"


# ----------------------------------------------------------------------
# delta chains: array resumes == object cold, children chain as parents
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _delta_cell(family_name: str, seed: int):
    spec, compiled = _family_cell(family_name, seed)
    delta = DeltaEvaluator(compiled)
    parent = evaluate_candidate(
        compiled, im_design(spec, compiled), record_trace=True
    )
    assert parent is not None
    return spec, compiled, delta, parent


@pytest.mark.parametrize("family_name", families.family_names())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_array_delta_equals_object_cold_property(family_name, data):
    """Random move chains on every family: array delta == object cold."""
    seed = data.draw(st.sampled_from([1, 2]), label="scenario seed")
    spec, compiled, delta, parent = _delta_cell(family_name, seed)
    arr = compiled.arrays
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
        out, _ = delta.evaluate_move(current, move, child)
        assert_matches_oracle(spec, child, out, arr, move.describe())
        if out is not None:
            current = out


# ----------------------------------------------------------------------
# seeded strategies: every visited candidate matches the oracle
# ----------------------------------------------------------------------
class TestSeededStrategyEquivalence:
    """The array runtime against the object oracle over whole searches:
    every candidate a seeded run evaluates is rescheduled and re-priced
    by the object kernel, and the design stays the same with the cache
    off and on the Python kernels (no compiled extension)."""

    @pytest.mark.parametrize("family_name", ["uniform-baseline", "pipeline"])
    def test_mh_identical_across_cores(self, family_name, monkeypatch):
        from repro.experiments.runner import design_identity

        family = families.get_family(family_name)
        spec = family.build(family.smallest_preset, seed=1).spec()
        seen = record_candidates(monkeypatch)
        reference = design_identity(MappingHeuristic().design(spec))
        assert_search_matches_oracle(spec, seen)
        off = MappingHeuristic(engine=EngineConfig(use_cache=False))
        assert design_identity(off.design(spec)) == reference
        monkeypatch.setattr(ckernel, "KERNEL", None)
        assert design_identity(MappingHeuristic().design(spec)) == reference

    def test_sa_identical_across_cores(self, spec, monkeypatch):
        from repro.experiments.runner import design_identity

        seen = record_candidates(monkeypatch)
        reference = design_identity(
            SimulatedAnnealing(iterations=120, seed=3).design(spec)
        )
        assert_search_matches_oracle(spec, seen)
        monkeypatch.setattr(ckernel, "KERNEL", None)
        assert design_identity(
            SimulatedAnnealing(iterations=120, seed=3).design(spec)
        ) == reference


# ----------------------------------------------------------------------
# run states survive pickling (stored and shipped outcomes carry them)
# ----------------------------------------------------------------------
class TestRunStatePickling:
    def test_round_trip_preserves_columns_and_resumability(self, spec):
        compiled = CompiledSpec(spec)
        arr = compiled.arrays
        design = im_design(spec, compiled)
        state = arr.schedule_design(design, record=True)
        assert state.success
        clone = pickle.loads(pickle.dumps(state))
        for name in (
            "ev_job", "ev_node", "ev_start", "ev_end", "ev_mptr",
            "mv_edge", "mv_round", "mv_arrival", "ready_at", "pop",
            "urg", "rank_of_job", "job_of_rank",
        ):
            assert getattr(clone, name) == getattr(state, name), name
        assert clone.rank_np is None  # dropped; rebuilt lazily from lists
        # The clone decodes to the same schedule and parents a resume.
        assert occupancy(arr.decode_schedule(clone)) == occupancy(
            arr.decode_schedule(state)
        )
        assert clone.as_numpy()["ev_job"].tolist() == state.ev_job
