"""SearchLoop semantics: legacy-trajectory equivalence and budget laws.

The refactor's core promise is that the kernel *is* the legacy loops:
frozen verbatim copies of the pre-refactor steepest descent and
Metropolis walk (as they lived in ``core.improvement`` and
``core.simulated_annealing`` before the search-kernel PR) are replayed
here against the kernel configurations, byte-identical designs and RNG
streams required.  Plus the budget laws the experiments layer relies
on: zero budgets return the start, and a strictly larger budget never
yields a worse incumbent (monotonicity, hypothesis-tested).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from searchutil import identity, small_scenario, start_of

from repro.engine import EvaluationEngine
from repro.search.acceptors import (
    AcceptAny,
    GreedyAcceptor,
    MetropolisAcceptor,
)
from repro.search.budget import Budget
from repro.search.loop import SearchLoop
from repro.search.proposers import (
    NeighbourhoodProposer,
    RandomMoveProposer,
    generate_moves,
    random_move,
)


# ----------------------------------------------------------------------
# frozen pre-refactor reference implementations
# ----------------------------------------------------------------------
def legacy_steepest_descent(
    spec,
    evaluator,
    start,
    pool_size=8,
    max_iterations=64,
    min_improvement=1e-9,
    use_message_moves=True,
):
    """The descent loop exactly as it was before the kernel refactor."""
    best = start
    for _ in range(max_iterations):
        moves = generate_moves(spec, best, pool_size, use_message_moves)
        winner = None
        for evaluated in evaluator.evaluate_moves(best, moves):
            if evaluated is None:
                continue
            target = winner.objective if winner is not None else best.objective
            if evaluated.objective < target - min_improvement:
                winner = evaluated
        if winner is None:
            break
        best = winner
    return best


def _legacy_accept(delta, temperature, rng):
    import math

    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return rng.random() < math.exp(-delta / temperature)


def legacy_sa_walk(
    spec,
    evaluator,
    start,
    rng,
    iterations,
    cooling=0.997,
    min_temperature=1e-3,
    probe_moves=24,
):
    """Calibration probe + Metropolis walk exactly as before the refactor."""
    current = start
    best = current

    deltas = []
    probe_current = current
    for _ in range(probe_moves):
        move = random_move(spec, probe_current, rng)
        if move is None:
            break
        proposal = evaluator.evaluate_move(probe_current, move)
        if proposal is None:
            continue
        deltas.append(abs(proposal.objective - probe_current.objective))
        probe_current = proposal
    if not deltas:
        temperature = 10.0
    else:
        temperature = max(1.0, 2.0 * float(np.mean(deltas)))

    for _ in range(iterations):
        move = random_move(spec, current, rng)
        if move is None:
            break
        proposal = evaluator.evaluate_move(current, move)
        if proposal is not None and _legacy_accept(
            proposal.objective - current.objective, temperature, rng
        ):
            current = proposal
            if current.objective < best.objective:
                best = current
        temperature = max(min_temperature, temperature * cooling)
    return best, current, temperature, rng.bit_generator.state


def kernel_sa_walk(
    spec,
    evaluator,
    start,
    rng,
    iterations,
    cooling=0.997,
    min_temperature=1e-3,
    probe_moves=24,
):
    """The same pipeline expressed as two kernel loops."""
    deltas = []

    def record(event):
        if event.accepted is not None:
            deltas.append(
                abs(event.accepted.objective - event.previous.objective)
            )

    SearchLoop(
        RandomMoveProposer(), AcceptAny(), Budget(max_steps=probe_moves)
    ).run(spec, evaluator, start=start, rng=rng, observer=record)
    if not deltas:
        temperature = 10.0
    else:
        temperature = max(1.0, 2.0 * float(np.mean(deltas)))

    acceptor = MetropolisAcceptor(temperature, cooling, min_temperature)
    outcome = SearchLoop(
        RandomMoveProposer(), acceptor, Budget(max_steps=iterations)
    ).run(spec, evaluator, start=start, rng=rng)
    return (
        outcome.incumbent,
        outcome.current,
        acceptor.temperature,
        rng.bit_generator.state,
    )


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------
class TestLegacyEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_descent_matches_legacy(self, seed):
        scenario = small_scenario(seed=3)
        spec = scenario.spec()
        pool_size = 4 + seed % 5
        with EvaluationEngine(spec) as legacy_eval:
            start = start_of(spec, legacy_eval)
            legacy = legacy_steepest_descent(
                spec, legacy_eval, start, pool_size=pool_size, max_iterations=8
            )
        with EvaluationEngine(spec) as kernel_eval:
            start = start_of(spec, kernel_eval)
            outcome = SearchLoop(
                NeighbourhoodProposer(pool_size=pool_size),
                GreedyAcceptor(),
                Budget(max_steps=8),
            ).run(spec, kernel_eval, start=start)
        assert identity(outcome.incumbent) == identity(legacy)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_metropolis_walk_matches_legacy(self, seed):
        scenario = small_scenario(seed=3)
        spec = scenario.spec()
        with EvaluationEngine(spec) as legacy_eval:
            start = start_of(spec, legacy_eval)
            legacy_best, legacy_current, legacy_temp, legacy_rng = (
                legacy_sa_walk(
                    spec,
                    legacy_eval,
                    start,
                    np.random.default_rng(seed),
                    iterations=60,
                )
            )
        with EvaluationEngine(spec) as kernel_eval:
            start = start_of(spec, kernel_eval)
            kernel_best, kernel_current, kernel_temp, kernel_rng = (
                kernel_sa_walk(
                    spec,
                    kernel_eval,
                    start,
                    np.random.default_rng(seed),
                    iterations=60,
                )
            )
        # Incumbent, walk endpoint, cooled temperature AND the RNG
        # stream itself must be byte-identical.
        assert identity(kernel_best) == identity(legacy_best)
        assert identity(kernel_current) == identity(legacy_current)
        assert kernel_temp == legacy_temp
        assert kernel_rng == legacy_rng


# ----------------------------------------------------------------------
# budget laws
# ----------------------------------------------------------------------
class TestBudgetLaws:
    def test_zero_step_budget_returns_start(self, spec, evaluator, start):
        outcome = SearchLoop(
            NeighbourhoodProposer(), GreedyAcceptor(), Budget(max_steps=0)
        ).run(spec, evaluator, start=start)
        assert outcome.incumbent is start
        assert outcome.stats.stop_reason == "budget:steps"
        assert outcome.stats.evaluations == 0

    def test_zero_evaluation_budget_returns_start(self, spec, evaluator, start):
        outcome = SearchLoop(
            NeighbourhoodProposer(), GreedyAcceptor(), Budget(max_evaluations=0)
        ).run(spec, evaluator, start=start)
        assert outcome.incumbent is start
        assert outcome.stats.stop_reason == "budget:evaluations"

    def test_patience_cuts_stochastic_walk(self, spec, evaluator, start):
        acceptor = MetropolisAcceptor(temperature=1e-9)
        outcome = SearchLoop(
            RandomMoveProposer(),
            acceptor,
            Budget(max_steps=500, patience=5),
        ).run(spec, evaluator, start=start, rng=np.random.default_rng(0))
        assert outcome.stats.stop_reason in ("budget:patience", "budget:steps")
        # At ~zero temperature nearly everything is rejected, so the
        # patience axis (not the step cap) is what fires.
        assert outcome.stats.stop_reason == "budget:patience"

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        budgets=st.lists(
            st.integers(min_value=0, max_value=120),
            min_size=2,
            max_size=4,
            unique=True,
        ),
    )
    def test_metropolis_incumbent_monotone_in_step_budget(self, seed, budgets):
        """A strictly larger budget never yields a worse incumbent."""
        scenario = small_scenario(seed=3)
        spec = scenario.spec()
        objectives = []
        with EvaluationEngine(spec) as evaluator:
            start = start_of(spec, evaluator)
            for max_steps in sorted(budgets):
                outcome = SearchLoop(
                    RandomMoveProposer(),
                    MetropolisAcceptor(temperature=5.0),
                    Budget(max_steps=max_steps),
                ).run(
                    spec,
                    evaluator,
                    start=start,
                    rng=np.random.default_rng(seed),
                )
                objectives.append(outcome.incumbent.objective)
        for smaller, larger in zip(objectives, objectives[1:]):
            assert larger <= smaller

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        budgets=st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    def test_mh_incumbent_monotone_in_evaluation_budget(self, budgets):
        """Strategy-level monotonicity via MH's external budget field."""
        from repro.core.mapping_heuristic import MappingHeuristic

        scenario = small_scenario(seed=3)
        spec = scenario.spec()
        objectives = []
        for max_evaluations in sorted(budgets):
            result = MappingHeuristic(
                budget=Budget(max_evaluations=max_evaluations)
            ).design(spec)
            assert result.valid
            objectives.append(result.objective)
        for smaller, larger in zip(objectives, objectives[1:]):
            assert larger <= smaller


class TestStats:
    def test_descent_stats_consistent(self, spec, evaluator, start):
        outcome = SearchLoop(
            NeighbourhoodProposer(), GreedyAcceptor(), Budget(max_steps=6)
        ).run(spec, evaluator, start=start)
        stats = outcome.stats
        assert stats.steps <= 6
        assert stats.accepted == stats.improvements
        assert stats.proposals == stats.evaluations
        assert stats.evaluations_to_incumbent <= stats.evaluations
        if outcome.incumbent is not start:
            assert stats.improvements > 0
        assert stats.stop_reason in ("budget:steps", "local-optimum")

    def test_observer_sees_every_step(self, spec, evaluator, start):
        events = []
        SearchLoop(
            RandomMoveProposer(),
            MetropolisAcceptor(temperature=5.0),
            Budget(max_steps=20),
        ).run(
            spec,
            evaluator,
            start=start,
            rng=np.random.default_rng(7),
            observer=events.append,
        )
        assert len(events) == 20
        assert [e.step for e in events] == list(range(1, 21))
