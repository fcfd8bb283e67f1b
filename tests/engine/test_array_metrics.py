"""Equivalence suite for the array-native metric kernel.

The contract under test: :mod:`repro.core.array_metrics` prices a
finished :class:`~repro.sched.arrays.ArrayRunState` **byte-identically**
to the object kernel, which stays as the test oracle
(:mod:`kernel_oracle`) -- every metric value, the objective, and
failure reporting match across all registered scenario families,
through chained delta generations and delta-resumed states, under
every binpack policy, with the cache on or off and with the delta
kernel off.  Plus the lazy-decode boundary: the hot path never builds
an object schedule, :attr:`EvaluatedDesign.schedule` decodes on demand
(also after a pickle round trip and for columnless states), and
:meth:`ArraySpec.decode_schedule` refuses columnless states loudly.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    assert_matches_oracle,
    assert_search_matches_oracle,
    occupancy,
    oracle,
    record_candidates,
)
from repro.core.binpack import best_fit, best_fit_unplaced_total_hist
from repro.core.initial_mapping import InitialMapper
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.array_metrics import (
    evaluate_state,
    evaluate_state_delta,
    price_counts,
    price_counts_python,
)
from repro.core.metrics import ObjectiveWeights, evaluate_design
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
    remap_moves,
)
from repro.engine import evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.engine.engine import EngineConfig, EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.gen import families
from repro.sched import ckernel
from repro.sched.list_scheduler import ListScheduler


@functools.lru_cache(maxsize=32)
def _cell(family_name: str, seed: int = 1):
    """Spec, compiled spec and the IM design of one family."""
    family = families.get_family(family_name)
    spec = family.build(family.smallest_preset, seed=seed).spec()
    compiled = CompiledSpec(spec)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    design = CandidateDesign(outcome[0], dict(compiled.default_priorities))
    return spec, compiled, design


def _neighbourhood(spec, design, limit_delays: int = 6):
    """The design itself plus every remap, swaps and message delays."""
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))
    moves.extend(SwapPriorities(a, b) for a, b in zip(pids, pids[1:]))
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return [design] + [m.apply(design) for m in moves]


# ----------------------------------------------------------------------
# cold equivalence: array metrics == object metrics on every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", families.family_names())
def test_cold_metrics_equal_object_kernel(family_name):
    """Values, objective and validity match over the IM neighbourhood."""
    spec, compiled, design = _cell(family_name)
    arrays = compiled.arrays
    compared = 0
    for child in _neighbourhood(spec, design):
        state = arrays.schedule_design(child, columns=True)
        _, reference = oracle(spec, child)
        assert state.success == (reference is not None)
        if reference is None:
            continue
        metrics = evaluate_state(arrays, state, spec.future, spec.weights)
        assert metrics == reference
        compared += 1
    assert compared > 0


@pytest.mark.parametrize("policy", ["first-fit", "worst-fit"])
def test_ablation_policies_equal_object_kernel(policy):
    """The non-default packing policies price identically too."""
    spec, compiled, design = _cell("uniform-baseline")
    arrays = compiled.arrays
    weights = ObjectiveWeights(binpack_policy=policy)
    compared = 0
    for child in _neighbourhood(spec, design)[:12]:
        state = arrays.schedule_design(child, columns=True)
        if not state.success:
            continue
        schedule = arrays.decode_schedule(state)
        assert evaluate_state(
            arrays, state, spec.future, weights
        ) == evaluate_design(schedule, spec.future, weights)
        compared += 1
    assert compared > 0


def test_failure_reasons_without_decode():
    """Invalid candidates report the object kernel's exact failure
    string straight from the columnless state -- no decode, no trace."""
    from repro.gen.scenario import ScenarioParams, build_scenario

    spec = build_scenario(
        ScenarioParams(n_existing=14, n_current=10, current_utilization=0.3),
        seed=4,
    ).spec()
    compiled = CompiledSpec(spec)
    arrays = compiled.arrays
    scheduler = ListScheduler(spec.architecture)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    design = CandidateDesign(outcome[0], dict(compiled.default_priorities))
    failures = 0
    for child in _neighbourhood(spec, design, limit_delays=20):
        state = arrays.schedule_design(child)
        cold = scheduler.try_schedule(
            spec.current,
            child.mapping,
            priorities=child.priorities,
            message_delays=child.message_delays,
            compiled=compiled,
        )
        assert state.success == cold.success
        if cold.success:
            continue
        assert not state.columns, "hot-path state recorded trace columns"
        assert state.failure_reason == cold.failure_reason
        failures += 1
    assert failures > 0, "scenario produced no invalid children"


# ----------------------------------------------------------------------
# delta generations: resumed parent -> child -> grandchild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", families.family_names())
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_chained_delta_generations_stay_identical(family_name, data):
    """Random move chains, each child resumed from its parent's
    checkpoints, price exactly like the object oracle on the same
    design."""
    spec, compiled, design = _cell(family_name)
    arrays = compiled.arrays
    delta = DeltaEvaluator(compiled)
    parent = evaluate_candidate(compiled, design, record_trace=True)
    assert parent is not None
    pids = [p.id for p in spec.current.processes]
    messages = [m.id for m in spec.current.messages]
    current = parent
    for _ in range(data.draw(st.integers(1, 4), label="generations")):
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
        assert_matches_oracle(spec, child, out, label=move.describe())
        if out is None:
            continue
        assert price_counts(
            arrays, out.trace, spec.future
        ) == price_counts_python(arrays, out.trace, spec.future)
        current = out


def test_resumed_state_prices_like_cold_state():
    """A child state resumed from the parent's checkpoints prices
    exactly like the same child scheduled cold (nothing of the
    parent's occupancy leaks into the price)."""
    spec, compiled, design = _cell("pipeline")
    arrays = compiled.arrays
    delta = DeltaEvaluator(compiled)
    parent = evaluate_candidate(compiled, design, record_trace=True)
    assert parent is not None
    pids = [p.id for p in spec.current.processes]
    compared = 0
    for move in list(remap_moves(design.mapping, pids))[:15]:
        child = move.apply(design)
        resumed = delta.try_resume_arrays(parent, move, child)
        if resumed is None or not resumed.success:
            continue
        cold = arrays.schedule_design(child)
        assert price_counts(
            arrays, resumed, spec.future
        ) == price_counts_python(arrays, cold, spec.future)
        metrics, memo = evaluate_state_delta(
            arrays, resumed, spec.future, spec.weights
        )
        assert memo is None
        assert metrics == evaluate_state(
            arrays, cold, spec.future, spec.weights
        )
        compared += 1
    assert compared > 0


# ----------------------------------------------------------------------
# engine-level determinism: cache on/off, delta
# ----------------------------------------------------------------------
def _engine_outcomes(spec, design, moves, config):
    with EvaluationEngine(spec, config) as engine:
        parent = engine.evaluate(design)
        return engine.evaluate_moves(parent, moves)


def test_engine_variants_price_identically(monkeypatch):
    """Every engine variant (cache on/off, compiled or Python kernels)
    prices each child exactly like the object oracle."""
    spec, _, design = _cell("uniform-baseline")
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))[:20]
    for kernel, config in (
        (ckernel.KERNEL, EngineConfig()),
        (ckernel.KERNEL, EngineConfig(use_cache=False)),
        (None, EngineConfig(use_cache=False)),
    ):
        monkeypatch.setattr(ckernel, "KERNEL", kernel)
        outcomes = _engine_outcomes(spec, design, moves, config)
        for move, outcome in zip(moves, outcomes):
            assert_matches_oracle(
                spec, move.apply(design), outcome, label=f"{config}"
            )


class TestSeededStrategyByteIdentity:
    """Every candidate a seeded search visits prices like the object
    oracle -- i.e. the array metric path never perturbs a single
    comparison -- and the design is the same with the cache off."""

    def test_mh(self, monkeypatch):
        from repro.experiments.runner import design_identity

        family = families.get_family("hetero-mixed")
        spec = family.build(family.smallest_preset, seed=2).spec()
        seen = record_candidates(monkeypatch)
        reference = design_identity(MappingHeuristic().design(spec))
        assert_search_matches_oracle(spec, seen)
        off = MappingHeuristic(engine=EngineConfig(use_cache=False))
        assert design_identity(off.design(spec)) == reference

    def test_sa(self, monkeypatch):
        family = families.get_family("bursty")
        spec = family.build(family.smallest_preset, seed=1).spec()
        seen = record_candidates(monkeypatch)
        result = SimulatedAnnealing(iterations=100, seed=7).design(spec)
        assert result.valid
        assert_search_matches_oracle(spec, seen)


# ----------------------------------------------------------------------
# histogram best-fit == reference best-fit
# ----------------------------------------------------------------------
class TestHistPacking:
    def _runs(self, objects):
        ordered = sorted(objects, reverse=True)
        runs = []
        for size in ordered:
            if runs and runs[-1][0] == size:
                runs[-1] = (size, runs[-1][1] + 1)
            else:
                runs.append((size, 1))
        return ordered, runs

    @given(
        objects=st.lists(st.integers(1, 40), min_size=0, max_size=30),
        bins=st.lists(st.integers(0, 60), min_size=0, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_best_fit(self, objects, bins):
        ordered, runs = self._runs(objects)
        hist: dict = {}
        for cap in bins:
            hist[cap] = hist.get(cap, 0) + 1
        expected = best_fit(ordered, bins).unplaced_total if objects else 0
        frozen = dict(hist)
        assert best_fit_unplaced_total_hist(runs, hist) == expected
        assert hist == frozen, "consume=False mutated the input histogram"
        assert (
            best_fit_unplaced_total_hist(runs, hist, consume=True) == expected
        )

    def test_remainder_classes_chain(self):
        """Remainder bins re-enter later (smaller-size) runs."""
        # 3 bins of 10: the 7s drain them to 3s, which then host the 3s.
        runs = [(7, 3), (3, 4)]
        assert best_fit_unplaced_total_hist(runs, {10: 3}) == (
            best_fit([7, 7, 7, 3, 3, 3, 3], [10, 10, 10]).unplaced_total
        )


# ----------------------------------------------------------------------
# the lazy-decode boundary
# ----------------------------------------------------------------------
class TestLazyDecode:
    def _outcome(self, record_trace: bool = False):
        spec, compiled, design = _cell("uniform-baseline")
        outcome = evaluate_candidate(
            compiled, design, record_trace=record_trace
        )
        assert outcome is not None
        return spec, compiled, design, outcome

    def test_hot_path_skips_decode_and_columns(self):
        """The hot path decodes nothing and keeps no state (the compiled
        pass's block is dropped once priced)."""
        _, _, _, outcome = self._outcome()
        assert outcome._schedule is None
        assert outcome._state is None and outcome.trace is None

    def test_lazy_schedule_equals_eager_object_schedule(self):
        spec, _, design, outcome = self._outcome()
        eager, _ = oracle(spec, design)
        lazy = outcome.schedule
        assert outcome._schedule is lazy, "decode was not cached"
        assert occupancy(lazy) == occupancy(eager.schedule)

    def test_traced_state_decodes_without_rerun(self):
        """A record_trace outcome owns columns; decode must not re-run
        the pass (the decoded schedule comes from the same state)."""
        _, _, _, outcome = self._outcome(record_trace=True)
        assert outcome._state.columns
        schedule = outcome.schedule
        assert schedule is outcome._schedule  # decoded and cached

    def test_pickle_round_trip_drops_and_regains_substrate(self):
        _, compiled, _, outcome = self._outcome()
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone._compiled is None and clone._timings is None
        with pytest.raises(ValueError, match="decode substrate"):
            clone.schedule
        clone._compiled = compiled
        assert clone.schedule is not None
        assert clone.metrics == outcome.metrics

    def test_decode_schedule_refuses_columnless_states(self):
        _, compiled, design, _ = self._outcome()
        arrays = compiled.arrays
        state = arrays.schedule_design(design)  # hot path: no columns
        assert state.success and not state.columns
        with pytest.raises(ValueError, match="columnless"):
            arrays.decode_schedule(state)

    def test_constructor_refuses_scheduleless_without_state(self):
        """The compiled spec every schedule decodes against is a
        required constructor argument."""
        _, _, _, outcome = self._outcome()
        with pytest.raises(TypeError, match="compiled"):
            EvaluatedDesign(outcome.design, outcome.metrics)
