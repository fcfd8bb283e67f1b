"""Tests for the design metrics C1P/C1m/C2P/C2m and the objective.

Includes the crafted layouts of slides 12 and 13 as exact unit tests.
"""

import pytest

from repro.core.future import DiscreteDistribution, FutureCharacterization
from repro.core.metrics import (
    DesignMetrics,
    ObjectiveWeights,
    evaluate_design,
    metric_c1m,
    metric_c1p,
    metric_c2m,
    metric_c2p,
)
from repro.model.architecture import Architecture, Node
from repro.sched.schedule import SystemSchedule


@pytest.fixture
def arch1() -> Architecture:
    """One node with slot 10 tu / 16 bytes."""
    return Architecture([Node("N1")], slot_length=10, slot_capacity=16)


def future_fixed(t_min, t_need, b_need, wcet=40, msg=4) -> FutureCharacterization:
    return FutureCharacterization(
        t_min=t_min,
        t_need=t_need,
        b_need=b_need,
        wcet_distribution=DiscreteDistribution((wcet,), (1.0,)),
        message_size_distribution=DiscreteDistribution((msg,), (1.0,)),
    )


class TestC1PSlide12:
    """Slide 12: same slack total, different clustering."""

    def test_contiguous_slack_c1_zero(self, arch1):
        s = SystemSchedule(arch1, 160)
        s.place_process("X", 0, "N1", 0, 80)  # slack [80,160) contiguous
        assert metric_c1p(s, future_fixed(160, 80, 1)) == 0.0

    def test_matching_gaps_c1_zero(self, arch1):
        s = SystemSchedule(arch1, 160)
        s.place_process("X", 0, "N1", 40, 40)
        s.place_process("Y", 0, "N1", 120, 40)  # gaps 40+40
        assert metric_c1p(s, future_fixed(160, 80, 1)) == 0.0

    def test_fragmented_gaps_c1_100(self, arch1):
        s = SystemSchedule(arch1, 160)
        for i, start in enumerate((20, 60, 100, 140)):
            s.place_process(f"Z{i}", 0, "N1", start, 20)  # gaps of 20
        assert metric_c1p(s, future_fixed(160, 80, 1)) == 100.0

    def test_partial_packing_percentage(self, arch1):
        """Slide 12c: 75% of the future application does not fit."""
        s = SystemSchedule(arch1, 160)
        # One gap of 40 and the rest shattered: 4 objects of 40 demanded.
        s.place_process("A", 0, "N1", 40, 120)
        fc = future_fixed(160, 160, 1)
        assert metric_c1p(s, fc) == 75.0

    def test_zero_demand_is_zero(self, arch1):
        s = SystemSchedule(arch1, 160)
        assert metric_c1p(s, future_fixed(160, 0, 1)) == 0.0

    def test_policy_parameter(self, arch1):
        s = SystemSchedule(arch1, 160)
        s.place_process("X", 0, "N1", 0, 80)
        fc = future_fixed(160, 80, 1)
        assert metric_c1p(s, fc, policy="first-fit") == 0.0
        assert metric_c1p(s, fc, policy="worst-fit") == 0.0


class TestC1m:
    def test_all_messages_fit(self, arch1):
        s = SystemSchedule(arch1, 160)
        # 16 rounds? horizon 160 / round 10 = 16 occurrences x 16 B.
        assert metric_c1m(s, future_fixed(160, 1, 32)) == 0.0

    def test_bus_fully_used_c1m_100(self, arch1):
        s = SystemSchedule(arch1, 20)
        s.bus.place("m1", 0, "N1", 0, 16)
        s.bus.place("m2", 0, "N1", 1, 16)
        assert metric_c1m(s, future_fixed(20, 1, 8)) == 100.0

    def test_zero_demand_zero(self, arch1):
        s = SystemSchedule(arch1, 20)
        assert metric_c1m(s, future_fixed(20, 1, 0)) == 0.0


class TestC2PSlide13:
    """Slide 13: same slack total, different time distribution."""

    def test_lopsided_slack_c2_zero(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.place_process("A", 0, "N1", 80, 120)  # window 2 fully busy
        fc = future_fixed(100, 40, 1, wcet=20)
        assert metric_c2p(s, fc) == 0

    def test_balanced_slack_c2_40(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.place_process("A", 0, "N1", 0, 60)
        s.place_process("B", 0, "N1", 100, 60)
        fc = future_fixed(100, 40, 1, wcet=20)
        assert metric_c2p(s, fc) == 40

    def test_c2p_sums_over_processors(self, arch2):
        s = SystemSchedule(arch2, 80)
        s.place_process("A", 0, "N1", 0, 20)  # min window slack 20
        fc = future_fixed(40, 10, 1, wcet=10)
        # N1: windows 20, 40 -> min 20; N2: 40, 40 -> min 40.
        assert metric_c2p(s, fc) == 60

    def test_c2m_minimum_window_capacity(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.bus.place("m", 0, "N1", 0, 10)
        fc = future_fixed(100, 1, 8)
        # Window 1: 10 slots... horizon 200, round 10 -> 10 occurrences
        # per 100-tu window, 16 B each; 10 used in window 1.
        assert metric_c2m(s, fc) == 10 * 16 - 10


class TestObjective:
    def test_perfect_design_scores_zero(self, arch1):
        s = SystemSchedule(arch1, 200)
        fc = future_fixed(100, 40, 8, wcet=20)
        metrics = evaluate_design(s, fc)
        assert metrics.objective == 0.0
        assert metrics.c1p == 0.0 and metrics.c1m == 0.0

    def test_penalties_normalized_to_percent(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.place_process("A", 0, "N1", 80, 120)
        fc = future_fixed(100, 40, 1, wcet=20)
        metrics = evaluate_design(s, fc)
        assert metrics.penalty_2p == 100.0  # C2P=0 vs t_need=40

    def test_unnormalized_penalties(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.place_process("A", 0, "N1", 80, 120)
        fc = future_fixed(100, 40, 1, wcet=20)
        metrics = evaluate_design(
            s, fc, ObjectiveWeights(normalize_second=False)
        )
        assert metrics.penalty_2p == 40.0

    def test_weights_scale_terms(self, arch1):
        s = SystemSchedule(arch1, 200)
        s.place_process("A", 0, "N1", 80, 120)
        fc = future_fixed(100, 40, 1, wcet=20)
        base = evaluate_design(s, fc).objective
        doubled = evaluate_design(s, fc, ObjectiveWeights(w2p=2.0)).objective
        assert doubled == pytest.approx(2 * base)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(w1p=-1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(binpack_policy="magic")

    def test_summary_renders(self, arch1):
        s = SystemSchedule(arch1, 200)
        fc = future_fixed(100, 40, 8, wcet=20)
        summary = evaluate_design(s, fc).summary()
        assert "C1P" in summary and "C=" in summary

    def test_objective_monotone_in_load(self, arch1):
        """More frozen load never improves the objective."""
        fc = future_fixed(100, 80, 8, wcet=20)
        values = []
        for load in (0, 60, 120, 180):
            s = SystemSchedule(arch1, 200)
            if load:
                s.place_process("A", 0, "N1", 0, min(load, 100))
                if load > 100:
                    s.place_process("B", 0, "N1", 100, load - 100)
            values.append(evaluate_design(s, fc).objective)
        assert values == sorted(values)


class TestFastCoreMatchesReferenceMetrics:
    """The fast object metric core equals the component functions.

    ``evaluate_design`` uses cached bags, the lean packing kernel and
    single-pass slack extraction; the
    component functions ``metric_c1p``/``metric_c1m``/``metric_c2p``/
    ``metric_c2m`` keep their original from-scratch implementations.
    This cross-check pins the two paths to each other -- it is also
    what keeps ``benchmarks/bench_delta.py``'s from-scratch reference
    meaningful.
    """

    @pytest.mark.parametrize("policy", ["best-fit", "first-fit", "worst-fit"])
    def test_component_functions_agree(self, policy):
        from repro.core.metrics import (
            ObjectiveWeights,
            evaluate_design,
            metric_c1m,
            metric_c1p,
            metric_c2m,
            metric_c2p,
        )
        from repro.core.initial_mapping import InitialMapper
        from repro.gen.scenario import ScenarioParams, build_scenario

        scenario = build_scenario(
            ScenarioParams(n_existing=12, n_current=8), seed=3
        )
        spec = scenario.spec()
        mapper = InitialMapper(spec.architecture)
        outcome = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        assert outcome is not None
        _, schedule = outcome
        weights = ObjectiveWeights(binpack_policy=policy)
        metrics = evaluate_design(schedule, spec.future, weights)
        assert metrics.c1p == metric_c1p(schedule, spec.future, policy)
        assert metrics.c1m == metric_c1m(schedule, spec.future, policy)
        assert metrics.c2p == metric_c2p(schedule, spec.future)
        assert metrics.c2m == metric_c2m(schedule, spec.future)
