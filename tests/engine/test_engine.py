"""Tests for the EvaluationEngine: accounting, strategy integration and
batch-versus-single equivalence."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.adhoc import AdHocStrategy
from repro.core.initial_mapping import InitialMapper
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.transformations import CandidateDesign
from repro.engine import EngineConfig, EvaluationEngine
from repro.engine.store import SqliteResultStore
from repro.sched.priorities import hcp_priorities
from repro.search.budget import Budget


@pytest.fixture(params=["memory", "sqlite"])
def store_config(request, tmp_path):
    """Engine backend selection; ``fresh()`` gives an unshared database."""
    paths = iter(range(1000))

    def fresh():
        if request.param == "memory":
            return EngineConfig()
        return EngineConfig(
            cache_store="sqlite",
            cache_path=str(tmp_path / f"engine-{next(paths)}.sqlite"),
        )

    return fresh


def _outcomes(results):
    return [None if r is None else r.objective for r in results]


class TestEvaluationEngine:
    def test_evaluate_counts(self, spec):
        with EvaluationEngine(spec) as engine:
            mapper = InitialMapper(spec.architecture)
            mapping, _ = mapper.try_map_and_schedule(
                spec.current, base=spec.base_schedule
            )
            design = CandidateDesign(
                mapping, hcp_priorities(spec.current, spec.architecture.bus)
            )
            out = engine.evaluate(design)
            assert out is not None and out.objective >= 0
            assert engine.evaluations == 1
            stats = engine.cache_stats()
            assert (stats.hits, stats.misses) == (0, 1)

    def test_cache_disabled_stats_zero(self, spec):
        with EvaluationEngine(spec, EngineConfig(use_cache=False)) as engine:
            stats = engine.cache_stats()
            assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

    def test_price_matches_metrics_path(self, spec):
        from repro.core.metrics import evaluate_design

        mapper = InitialMapper(spec.architecture)
        outcome = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        assert outcome is not None
        _, schedule = outcome
        with EvaluationEngine(spec) as engine:
            assert (
                engine.price(schedule).objective
                == evaluate_design(schedule, spec.future, spec.weights).objective
            )


class TestEngineConfig:
    """The one engine-settings value: checked when built, then frozen."""

    def test_unknown_store_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown cache_store 'redis'"):
            EngineConfig(cache_store="redis")

    def test_sqlite_without_path_rejected_at_construction(self):
        with pytest.raises(ValueError, match="requires a cache_path"):
            EngineConfig(cache_store="sqlite")
        with pytest.raises(ValueError, match="requires a cache_path"):
            EngineConfig(use_cache=False, cache_store="sqlite")

    def test_immutable(self, tmp_path):
        config = EngineConfig(
            cache_store="sqlite", cache_path=str(tmp_path / "s.sqlite")
        )
        assert config.persistent
        with pytest.raises(FrozenInstanceError):
            config.use_cache = False
        with pytest.raises(FrozenInstanceError):
            config.cache_path = None
        assert hash(config) == hash(replace(config))

    def test_cache_off_builds_no_store(self, spec, tmp_path):
        path = tmp_path / "never.sqlite"
        config = EngineConfig(
            use_cache=False, cache_store="sqlite", cache_path=str(path)
        )
        assert not config.persistent
        with EvaluationEngine(spec, config) as engine:
            assert engine.cache is None
        assert not path.exists()


class TestAdHocOnEngine:
    def test_ah_unchanged_by_engine_knobs(self, spec):
        """AH opens no engine, so it declares no engine setting; its one
        remaining knob, the budget, does not change its design either."""
        assert [f.name for f in fields(AdHocStrategy)] == ["budget"]
        with pytest.raises(TypeError):
            AdHocStrategy(engine=EngineConfig(use_cache=False))
        plain = AdHocStrategy().design(spec)
        tuned = AdHocStrategy(budget=Budget(max_evaluations=1)).design(spec)
        assert plain.valid and tuned.valid
        assert plain.objective == tuned.objective
        assert plain.mapping.as_dict() == tuned.mapping.as_dict()
        assert plain.evaluations == tuned.evaluations == 1


class TestEngineCounters:
    def test_snapshot_and_subtraction(self, spec):
        from repro.engine import EngineCounters

        with EvaluationEngine(spec) as evaluator:
            mapper = InitialMapper(spec.architecture)
            mapping, _ = mapper.try_map_and_schedule(
                spec.current,
                base=spec.base_schedule,
                compiled=evaluator.compiled,
            )
            designs = [
                CandidateDesign(
                    mapping, dict(evaluator.compiled.default_priorities)
                )
                for _ in range(3)
            ]
            before = evaluator.counters()
            assert before == EngineCounters(0, 0, 0, 0, 0)
            evaluator.evaluate_many(designs)
            evaluator.evaluate_many(designs)  # second pass: pure cache hits
            after = evaluator.counters()
            window = after - before
            assert window.evaluations == 2 * len(designs)
            assert window.cache_hits >= len(designs)
            assert (
                window.cache_hits + window.cache_misses == window.evaluations
            )
        # Counters stay readable after close (stats recording).
        assert evaluator.counters() == after


class TestLifecycle:
    def test_engine_released_when_strategy_raises_mid_search(
        self, spec, monkeypatch, tmp_path
    ):
        """A strategy failing mid-search still closes its engine and
        releases the result store's database connection."""
        import repro.core.mapping_heuristic as mh_module

        captured = {}

        class CapturingEngine(EvaluationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured["engine"] = self

        def boom(*args, **kwargs):
            raise RuntimeError("mid-search failure")

        monkeypatch.setattr(mh_module, "EvaluationEngine", CapturingEngine)
        monkeypatch.setattr(mh_module, "descent_loop", boom)
        strategy = MappingHeuristic(
            engine=EngineConfig(
                cache_store="sqlite", cache_path=str(tmp_path / "s.sqlite")
            )
        )
        with pytest.raises(RuntimeError, match="mid-search failure"):
            strategy.design(spec)
        engine = captured["engine"]
        assert engine.closed
        backend = engine.cache.backend
        assert isinstance(backend, SqliteResultStore)
        assert not backend.persistent


def _accounting(engine):
    counters = engine.counters()
    return (
        counters.cache_hits,
        counters.cache_misses,
        counters.evaluations,
        counters.delta_hits + counters.delta_fallbacks,
        list(engine.cache._store),
    )


class TestBatchEqualsSingles:
    """A batch is exactly the sequence of single calls it replaces --
    outcomes, cache counters, and resident LRU order -- also
    when the cache bound is smaller than the batch, so entries are
    evicted and re-solved inside it."""

    BOUND = 2

    def _repeat(self, items):
        # Earlier entries come back after the bound has evicted them.
        return items + items[:2] + items[-1:]

    def test_evaluate_moves_equals_single_moves(self, spec, start, moves, store_config):
        moves = self._repeat(moves)
        assert len(set(map(repr, moves))) > self.BOUND
        with EvaluationEngine(
            spec, store_config(), max_cache_entries=self.BOUND
        ) as batched:
            parent = batched.evaluate(start)
            batch = batched.evaluate_moves(parent, moves)
            batch_accounting = _accounting(batched)
        with EvaluationEngine(
            spec, store_config(), max_cache_entries=self.BOUND
        ) as single:
            parent = single.evaluate(start)
            singles = [single.evaluate_move(parent, m) for m in moves]
            single_accounting = _accounting(single)
        assert _outcomes(batch) == _outcomes(singles)
        assert batch_accounting == single_accounting
        hits, misses, evaluations, delta_attempts, _ = batch_accounting
        assert hits + misses == evaluations == len(moves) + 1
        assert misses > len(set(map(repr, moves))) + 1  # evictions re-solved
        assert delta_attempts == 0  # moves are evaluated cold

    def test_evaluate_many_equals_single_calls(self, spec, neighbourhood, store_config):
        designs = self._repeat(list(neighbourhood))
        with EvaluationEngine(
            spec, store_config(), max_cache_entries=self.BOUND
        ) as batched:
            batch = batched.evaluate_many(designs)
            batch_accounting = _accounting(batched)
        with EvaluationEngine(
            spec, store_config(), max_cache_entries=self.BOUND
        ) as single:
            singles = [single.evaluate(d) for d in designs]
            single_accounting = _accounting(single)
        assert _outcomes(batch) == _outcomes(singles)
        assert batch_accounting == single_accounting
        assert batch_accounting[1] > len(neighbourhood)  # evictions re-solved

    def test_sqlite_batch_reads_each_signature_once(
        self, spec, start, moves, tmp_path, monkeypatch
    ):
        """The batch loop never peeks the store (``__contains__``): each
        signature costs exactly one read."""
        calls = {"contains": 0, "get": 0}
        original_get = SqliteResultStore.get

        def counting_contains(self, signature):
            calls["contains"] += 1
            return False

        def counting_get(self, signature):
            calls["get"] += 1
            return original_get(self, signature)

        monkeypatch.setattr(SqliteResultStore, "__contains__", counting_contains)
        monkeypatch.setattr(SqliteResultStore, "get", counting_get)
        with EvaluationEngine(
            spec,
            EngineConfig(cache_store="sqlite", cache_path=str(tmp_path / "s.sqlite")),
        ) as engine:
            parent = engine.evaluate(start)
            designs = [m.apply(start) for m in moves]
            engine.evaluate_moves(parent, moves)
            engine.evaluate_many(designs)
        assert calls["contains"] == 0
        assert calls["get"] == 1 + 2 * len(moves)
