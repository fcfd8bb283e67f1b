"""Tests for batch evaluation through the EvaluationEngine: its closed
state and the order and accounting of ``evaluate_many``."""

import pytest

from repro.engine import EvaluationEngine
from repro.engine.store import SqliteResultStore


def _outcomes(results):
    return [None if r is None else r.objective for r in results]


class TestBatchEvaluator:
    def test_close_is_sticky_and_idempotent(self, spec, neighbourhood):
        engine = EvaluationEngine(spec)
        engine.evaluate_many(neighbourhood[:3])
        engine.close()
        engine.close()
        assert engine.closed

    def test_closed_engine_refuses_evaluation(self, spec, neighbourhood):
        engine = EvaluationEngine(spec)
        engine.evaluate(neighbourhood[0])
        engine.close()
        # Even a would-be cache hit is refused: a closed engine refuses
        # all evaluation uniformly.
        with pytest.raises(RuntimeError, match="closed"):
            engine.evaluate(neighbourhood[0])
        with pytest.raises(RuntimeError, match="closed"):
            engine.evaluate_many(neighbourhood)
        # Accounting stays readable after close (strategies record
        # statistics once the search has finished or failed).
        assert engine.evaluations == 1

    def test_closed_evaluator_refuses_evaluation(
        self, spec, neighbourhood, tmp_path
    ):
        engine = EvaluationEngine(
            spec, cache_store="sqlite", cache_path=str(tmp_path / "c.sqlite")
        )
        engine.evaluate_many(neighbourhood[:3])
        engine.close()
        backend = engine.cache.backend
        assert isinstance(backend, SqliteResultStore)
        assert not backend.persistent
        # A closed engine must refuse instead of silently reopening its
        # store; the refused batch counts nothing and reopens nothing.
        with pytest.raises(RuntimeError, match="closed"):
            engine.evaluate_many(neighbourhood)
        assert engine.evaluations == 3
        assert not backend.persistent


class TestEvaluateMany:
    def test_order_preserved_and_cached(self, spec, neighbourhood):
        with EvaluationEngine(spec) as engine:
            batch = engine.evaluate_many(neighbourhood)
            singles = [engine.evaluate(d) for d in neighbourhood]
            assert engine.cache_hits == len(neighbourhood)
        assert _outcomes(batch) == _outcomes(singles)

    def test_duplicates_within_batch_scheduled_once(self, spec, start):
        with EvaluationEngine(spec) as engine:
            results = engine.evaluate_many([start, start.copy(), start])
            assert engine.evaluations == 3
            # One real scheduling pass; the duplicates count as hits so
            # evaluations == hits + misses stays an invariant.
            assert engine.cache_misses == 1
            assert engine.cache_hits == 2
            assert _outcomes(results)[0] is not None
            assert len(set(_outcomes(results))) == 1
