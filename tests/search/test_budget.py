"""Budget composition and stop-verdict semantics."""

import pytest

from repro.search.budget import Budget, BudgetProgress


class TestBudgetLimits:
    def test_unlimited_by_default(self):
        budget = Budget()
        assert budget.unlimited
        progress = BudgetProgress(
            steps=10**9, evaluations=10**9, seconds=1e9, stall=10**9
        )
        assert budget.stop_reason(progress) is None

    def test_each_axis_stops(self):
        assert (
            Budget(max_steps=5).stop_reason(BudgetProgress(steps=5))
            == "budget:steps"
        )
        assert (
            Budget(max_evaluations=100).stop_reason(
                BudgetProgress(evaluations=100)
            )
            == "budget:evaluations"
        )
        assert (
            Budget(max_seconds=1.0).stop_reason(BudgetProgress(seconds=1.0))
            == "budget:seconds"
        )
        assert (
            Budget(patience=3).stop_reason(BudgetProgress(stall=3))
            == "budget:patience"
        )

    def test_below_limit_keeps_going(self):
        budget = Budget(max_steps=5, max_evaluations=100, patience=3)
        progress = BudgetProgress(steps=4, evaluations=99, stall=2)
        assert budget.stop_reason(progress) is None

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_steps=-1)
        with pytest.raises(ValueError):
            Budget(max_seconds=-0.5)

    def test_nan_limit_rejected(self):
        """NaN compares false to everything, so a NaN limit would never
        stop a search; the constructor refuses it on every axis."""
        for name in ("max_steps", "max_evaluations", "max_seconds", "patience"):
            with pytest.raises(ValueError, match="non-negative"):
                Budget(**{name: float("nan")})

    def test_zero_budget_stops_immediately(self):
        assert Budget(max_steps=0).stop_reason(BudgetProgress()) == "budget:steps"


class TestComposition:
    def test_and_takes_tighter_limit(self):
        combined = Budget(max_steps=10, max_evaluations=500) & Budget(
            max_steps=3, max_seconds=2.0
        )
        assert combined == Budget(
            max_steps=3, max_evaluations=500, max_seconds=2.0
        )

    def test_identity_composition(self):
        budget = Budget(max_steps=7, patience=2)
        assert (budget & Budget()) == budget
        assert (Budget() & budget) == budget

    def test_combine_ignores_none(self):
        assert Budget.combine(None, Budget(max_steps=4), None) == Budget(
            max_steps=4
        )
        assert Budget.combine() == Budget()

    def test_combine_folds_all(self):
        combined = Budget.combine(
            Budget(max_steps=9),
            Budget(max_steps=4, patience=8),
            Budget(patience=5),
        )
        assert combined == Budget(max_steps=4, patience=5)
