"""The evaluation engine: compiled problem + cache + candidate solving.

:class:`EvaluationEngine` is the one inner loop every strategy shares.
It owns

* a :class:`~repro.engine.compiled_spec.CompiledSpec` (problem
  construction, done once), and
* an optional :class:`~repro.engine.cache.EvaluationCache` (memoized
  solving).

Its settings travel as one frozen :class:`EngineConfig`, built once
(by the CLI, or by a caller's defaults) and handed down unchanged
through the experiment runner, the strategies and the portfolio races.

Every miss -- a move's child included -- is solved cold, in process,
by :func:`~repro.engine.evaluation.evaluate_candidate`: the compiled
pass and the compiled price over one state block cost less than the
incremental kernel's divergence scan and resume
(:mod:`repro.engine.delta`, kept as a library module), so moves do not
use it.  Parallelism lives one level up, in the sharded portfolio race
(:mod:`repro.search.distributed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence

from repro.engine.cache import DEFAULT_MAX_ENTRIES, CacheStats, EvaluationCache
from repro.engine.compiled_spec import CompiledSpec, Signature
from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)
from repro.engine.store import SqliteResultStore, StoreStats, make_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import DesignMetrics
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign, Transformation
    from repro.sched.schedule import SystemSchedule


@dataclass(frozen=True)
class EngineConfig:
    """The evaluation engine's settings, validated at construction.

    Attributes
    ----------
    use_cache:
        Memoize evaluation outcomes (including invalid verdicts).
    cache_store:
        Result-store backend: ``"memory"`` (the in-process LRU) or
        ``"sqlite"`` (persistent across processes and runs; see
        :mod:`repro.engine.store`).  Results are byte-identical either
        way; this is the CLI's ``--cache-store`` switch.
    cache_path:
        Database file of the sqlite backend (required with
        ``cache_store="sqlite"``, ignored otherwise).

    Raises
    ------
    ValueError
        For an unknown store name, or the sqlite store without a path.
    """

    use_cache: bool = True
    cache_store: str = "memory"
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_store not in ("memory", "sqlite"):
            raise ValueError(
                f"unknown cache_store {self.cache_store!r}; "
                "choose 'memory' or 'sqlite'"
            )
        if self.cache_store == "sqlite" and self.cache_path is None:
            raise ValueError(
                "cache_store='sqlite' requires a cache_path, the database "
                "file the results persist to (on the command line: "
                "--cache-store sqlite requires --cache-path)"
            )

    @property
    def persistent(self) -> bool:
        """Whether the engine writes its results to a sqlite store."""
        return self.use_cache and self.cache_store == "sqlite"


class EngineCounters(NamedTuple):
    """A point-in-time snapshot of every engine counter.

    The counter-level sibling of :class:`CacheStats`: one read
    returns all counters together
    (the portfolio runner records them as its race-level accounting),
    and two snapshots subtract (``after - before``) to attribute
    engine work to a window of activity.

    The ``*_ns`` fields are the stage-time buckets of the evaluation
    pipeline (scheduling pass, metric pricing, schedule decode).  They
    feed reporting only, never a decision.

    The ``store_*`` fields are the persistent result store's
    accounting: probes past the resident tier (hits/misses), rows
    flushed, and the wall time spent opening the database and
    committing write batches.  All zero on the memory backend.

    ``delta_hits``/``delta_fallbacks`` are always zero: moves are
    evaluated cold.  The fields stay for readers of earlier records.
    """

    evaluations: int
    cache_hits: int
    cache_misses: int
    delta_hits: int
    delta_fallbacks: int
    sched_ns: int = 0
    metrics_ns: int = 0
    decode_ns: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_open_ns: int = 0
    store_commit_ns: int = 0

    def __sub__(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(*(a - b for a, b in zip(self, other)))

    def __add__(self, other: "EngineCounters") -> "EngineCounters":  # type: ignore[override]
        """Field-wise merge -- fleet totals across shard engines."""
        return EngineCounters(*(a + b for a, b in zip(self, other)))


class EvaluationEngine:
    """Fast, cached evaluation of candidate designs.

    Parameters
    ----------
    spec:
        The design problem; compiled once at construction.
    config:
        Cache on/off and the result-store backend (:class:`EngineConfig`).
    max_cache_entries:
        LRU bound of the cache (default
        :data:`repro.engine.cache.DEFAULT_MAX_ENTRIES`; ``None`` =
        unbounded).
    store_read_only:
        Open the sqlite backend as a read-only shard view (distributed
        racing): warm rows are served from the database, new rows stay
        resident and are buffered for :meth:`drain_store_rows`, and
        the single read-write connection remains with the coordinating
        parent.  Ignored by the memory backend.
    """

    def __init__(
        self,
        spec: "DesignSpec",
        config: EngineConfig = EngineConfig(),
        *,
        max_cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        store_read_only: bool = False,
    ):
        self.spec = spec
        self.compiled = CompiledSpec(spec)
        self.cache: Optional[EvaluationCache] = None
        if config.use_cache:
            backend = make_store(
                config,
                self.compiled,
                max_cache_entries,
                read_only=store_read_only,
            )
            self.cache = EvaluationCache(max_cache_entries, store=backend)
        self.timings = StageTimings()
        self.evaluations = 0
        self._closed = False

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Schedule and price one candidate; ``None`` when invalid.

        Raises
        ------
        RuntimeError
            If the engine has been closed (even for would-be cache
            hits: a closed engine refuses all evaluation uniformly).
        """
        self._ensure_open()
        self.evaluations += 1
        if self.cache is None:
            return self._solve(design)
        signature = self.compiled.signature(design)
        found, outcome = self.cache.lookup(signature)
        if found:
            return outcome
        outcome = self._solve(design)
        self.cache.store(signature, outcome)
        self.cache.commit()
        return outcome

    def evaluate_many(
        self, designs: Sequence["CandidateDesign"]
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch of candidates, preserving input order.

        Exactly a sequence of :meth:`evaluate` calls -- same outcomes,
        same cache accounting and recency -- with one store commit at
        the end instead of one per candidate.
        """
        self._ensure_open()
        designs = list(designs)
        self.evaluations += len(designs)
        if self.cache is None:
            return [self._solve(design) for design in designs]
        return self._cached_batch(
            [self.compiled.signature(d) for d in designs],
            lambda i: self._solve(designs[i]),
        )

    def evaluate_move(
        self, parent: EvaluatedDesign, move: "Transformation"
    ) -> Optional[EvaluatedDesign]:
        """Schedule and price the child of ``(parent, move)``.

        Exactly :meth:`evaluate` of ``move.apply(parent.design)`` --
        same outcome, same cache accounting, a cold evaluation.

        Raises
        ------
        RuntimeError
            If the engine has been closed.
        """
        self._ensure_open()
        self.evaluations += 1
        child = move.apply(parent.design)
        if self.cache is None:
            return self._solve(child)
        signature = self.compiled.signature(child)
        found, outcome = self.cache.lookup(signature)
        if found:
            return outcome
        outcome = self._solve(child)
        self.cache.store(signature, outcome)
        self.cache.commit()
        return outcome

    def evaluate_moves(
        self,
        parent: EvaluatedDesign,
        moves: Sequence["Transformation"],
    ) -> List[Optional[EvaluatedDesign]]:
        """Score one parent's whole move neighbourhood, in input order.

        The move sibling of :meth:`evaluate_many`: exactly a sequence of
        :meth:`evaluate_move` calls, with one store commit at the end.
        """
        self._ensure_open()
        children = [move.apply(parent.design) for move in moves]
        self.evaluations += len(children)
        if self.cache is None:
            return [self._solve(child) for child in children]
        return self._cached_batch(
            [self.compiled.signature(child) for child in children],
            lambda i: self._solve(children[i]),
        )

    def _cached_batch(
        self,
        signatures: List[Signature],
        solve: Callable[[int], Optional[EvaluatedDesign]],
    ) -> List[Optional[EvaluatedDesign]]:
        """Serve ``signatures`` in order through the cache.

        Per signature: look it up (a hit refreshes recency), or solve
        it with ``solve(i)`` and store the outcome.  An in-batch
        duplicate is therefore a hit, and an entry evicted before a
        later use is re-solved -- exactly as single calls behave.  The
        batch ends at one store commit boundary: buffered backend
        writes are flushed together.
        """
        cache = self.cache
        assert cache is not None, "batches without a cache never get here"
        results: List[Optional[EvaluatedDesign]] = []
        for i, signature in enumerate(signatures):
            found, outcome = cache.lookup(signature)
            if not found:
                outcome = solve(i)
                cache.store(signature, outcome)
            results.append(outcome)
        cache.commit()
        return results

    def _solve(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Cold evaluation of one cache miss."""
        return evaluate_candidate(self.compiled, design, timings=self.timings)

    def price(self, schedule: "SystemSchedule") -> "DesignMetrics":
        """Metric evaluation of an already-built schedule.

        Used by strategies that obtain a schedule outside the candidate
        loop (AH reports the Initial Mapping's own schedule), so every
        objective value in the system comes from one code path.
        """
        from repro.core.metrics import evaluate_design

        return evaluate_design(schedule, self.spec.future, self.spec.weights)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    def cache_stats(self) -> CacheStats:
        """Hit/miss accounting (all zeros when caching is disabled)."""
        if self.cache is None:
            return CacheStats(0, 0, 0)
        return self.cache.stats()

    def store_stats(self) -> StoreStats:
        """Persistent-store accounting (all zeros on the memory backend)."""
        if self.cache is None:
            return StoreStats()
        return self.cache.store_stats()

    @property
    def store_hits(self) -> int:
        return self.store_stats().hits

    @property
    def store_misses(self) -> int:
        return self.store_stats().misses

    @property
    def store_writes(self) -> int:
        return self.store_stats().writes

    def drain_store_rows(self) -> List[tuple]:
        """Hand over encoded result rows a read-only shard view buffered.

        Empty on the memory backend and on read-write stores (which
        persist their own rows at every commit boundary); see
        :meth:`SqliteResultStore.drain_rows`.
        """
        backend = self.cache.backend if self.cache is not None else None
        if isinstance(backend, SqliteResultStore) and backend.read_only:
            return backend.drain_rows()
        return []

    def absorb_store_rows(self, rows: Sequence[tuple]) -> None:
        """Persist rows drained from shard engines (parent side only).

        A no-op on the memory backend; see
        :meth:`SqliteResultStore.absorb_rows`.
        """
        if not rows:
            return
        backend = self.cache.backend if self.cache is not None else None
        if isinstance(backend, SqliteResultStore):
            backend.absorb_rows(rows)

    def counters(self) -> EngineCounters:
        """Snapshot of all counters (readable even after close)."""
        store = self.store_stats()
        timings = self.timings
        return EngineCounters(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            delta_hits=0,
            delta_fallbacks=0,
            sched_ns=timings.sched_ns,
            metrics_ns=timings.metrics_ns,
            decode_ns=timings.decode_ns,
            store_hits=store.hits,
            store_misses=store.misses,
            store_writes=store.writes,
            store_open_ns=store.open_ns,
            store_commit_ns=store.commit_ns,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "EvaluationEngine is closed; build a fresh engine instead "
                "of evaluating through a closed one"
            )

    def close(self) -> None:
        """Flush the cache backend and retire the engine (idempotent).

        Closing is sticky: a closed engine refuses further evaluation
        (``RuntimeError``), while accounting accessors stay readable so
        strategies can record statistics after the search finished or
        failed.  The cache backend is flushed and released, so every
        memoized outcome of a completed run is durable.
        """
        self._closed = True
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
