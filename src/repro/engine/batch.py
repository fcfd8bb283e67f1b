"""Concurrent scoring of candidate batches.

The steepest-descent loop of MH (and SA's polish phase) generates a
whole neighbourhood of candidate designs per iteration and evaluates
every one of them before picking the winner -- an embarrassingly
parallel inner loop.  :class:`BatchEvaluator` scores such batches with
a ``concurrent.futures`` process pool for large scenarios and falls
back to serial evaluation for small ones, where the fork/pickle
overhead would dominate.

Since the incremental-evaluation refactor the evaluator also speaks a
*move* wire format: a neighbourhood is one parent design plus a list of
transformations, so a chunk ships the parent payload once and
``(parent signature, move)`` per candidate instead of a full candidate
payload each.  Workers keep the last few parents resident (keyed by
signature, with their scheduling traces), delta-evaluate each move from
the resident parent, and cold-evaluate the parent exactly once when it
is not resident yet.

Determinism: results are returned in input order and each worker runs
the same pure evaluation primitives, so a parallel run produces exactly
the results of a serial run -- seeded experiments stay reproducible
under ``--jobs N``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.engine.compiled_spec import CompiledSpec, Signature
from repro.engine.delta import DeltaEvaluator
from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign, Transformation

#: Compiled specs below this many expanded jobs are evaluated serially:
#: the problem is too small for process spin-up and pickling to pay off.
DEFAULT_PARALLEL_THRESHOLD = 96

#: Minimum batch size worth fanning out.
MIN_PARALLEL_BATCH = 2

#: How many chunks each worker should receive for load balancing.
CHUNKS_PER_WORKER = 4

#: Parents each worker keeps resident for delta evaluation.
WORKER_PARENT_CAPACITY = 8

#: Per-worker state: ``(spec, compiled, delta, parents, timings,
#: store)``, built once by the pool initializer so each
#: worker compiles the problem exactly once.  ``parents`` is the LRU
#: of resident parents; ``timings`` the worker's stage-time sink,
#: whose deltas ride back on every chunk result; ``store`` the
#: read-only view of the engine's persistent result store (``None``
#: without one).
_WORKER_STATE: Optional[Tuple] = None

#: Sentinel distinguishing "parent not resident" from a resident
#: parent whose evaluation verdict is invalid (``None``).
_ABSENT = object()

#: Wire form of one candidate: ``(assignment, priorities, delays)``.
Payload = Tuple[dict, dict, dict]

#: Wire form of one move chunk: the shared parent (signature + payload,
#: shipped once per chunk) and the per-candidate moves.
MoveChunk = Tuple[Signature, Payload, Tuple["Transformation", ...]]


def dispatch_chunksize(
    n_items: int, jobs: int, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> int:
    """Chunk size that keeps every worker busy on any batch size.

    Aims for ``chunks_per_worker`` chunks per worker (load balancing
    against uneven item costs) while capping each chunk at a fair
    ``ceil(n / jobs)`` share, so no single dispatch can hand one worker
    (nearly) the whole batch when ``n_items`` is barely above the
    parallel threshold.
    """
    if n_items <= 0 or jobs <= 1:
        return 1
    fair_share = -(-n_items // jobs)
    balanced = n_items // (jobs * chunks_per_worker)
    return max(1, min(fair_share, balanced))


def _init_worker(
    spec: "DesignSpec",
    use_delta: bool,
    store_path: Optional[str] = None,
    store_scenario: Optional[str] = None,
) -> None:
    """Process-pool initializer: compile the spec once per worker.

    With a ``store_path`` the worker additionally opens a *read-only*
    view of the engine's persistent result store and serves candidate
    payloads from it before solving cold -- the single read-write
    connection stays in the parent (single-writer rule), so worker
    read-through cannot perturb what gets committed or in what order.
    """
    global _WORKER_STATE
    compiled = CompiledSpec(spec)
    timings = StageTimings()
    delta = DeltaEvaluator(compiled, timings) if use_delta else None
    store = None
    if store_path is not None and os.path.exists(store_path):
        from repro.engine.store import SqliteResultStore

        candidate = SqliteResultStore(
            store_path,
            compiled=compiled,
            scenario=store_scenario,
            read_only=True,
        )
        store = candidate if candidate.persistent else None
    _WORKER_STATE = (spec, compiled, delta, OrderedDict(), timings, store)


def _evaluate_payload(
    payload: Payload,
) -> Tuple[Optional[EvaluatedDesign], Tuple[int, int, int], bool]:
    """Worker-side evaluation of one wire-form candidate.

    Returns the outcome, the stage-time deltas this evaluation
    accumulated in the worker (merged into the engine's sink by the
    dispatching :class:`BatchEvaluator`), and whether the persistent
    result store served it (no solving happened).  Store probes count
    hits only -- misses are attributed by the parent's own lookups, so
    a cold evaluation is never counted twice.
    """
    from repro.core.transformations import CandidateDesign
    from repro.model.mapping import Mapping

    assert _WORKER_STATE is not None, "worker initializer did not run"
    spec, compiled, delta, _, timings, store = _WORKER_STATE
    assignment, priorities, delays = payload
    design = CandidateDesign(
        Mapping(spec.current, spec.architecture, assignment),
        dict(priorities),
        dict(delays),
    )
    if store is not None:
        found, outcome = store.get(compiled.signature(design))
        if found:
            return outcome, (0, 0, 0), True
    before = timings.snapshot()
    outcome = evaluate_candidate(
        compiled, design, record_trace=delta is not None, timings=timings
    )
    return outcome, timings.since(before), False


def _resident_parent(
    signature: Signature, payload: Payload
) -> Optional[EvaluatedDesign]:
    """Fetch (or cold-build once) the chunk's parent in this worker.

    Residency is tested against the :data:`_ABSENT` sentinel, not the
    parent's truthiness: an *invalid* parent is resident as ``None``
    (strategies never send such parents; defensive), and conflating it
    with "not resident yet" would silently re-evaluate the invalid
    design on every chunk that names it.
    """
    from repro.core.transformations import CandidateDesign
    from repro.model.mapping import Mapping

    spec, compiled, delta, parents, timings, _ = _WORKER_STATE
    parent = parents.get(signature, _ABSENT)
    if parent is not _ABSENT:
        parents.move_to_end(signature)
        return parent
    assignment, priorities, delays = payload
    design = CandidateDesign(
        Mapping(spec.current, spec.architecture, assignment),
        dict(priorities),
        dict(delays),
    )
    parent = evaluate_candidate(
        compiled, design, record_trace=True, timings=timings
    )
    parents[signature] = parent
    if len(parents) > WORKER_PARENT_CAPACITY:
        parents.popitem(last=False)
    return parent


def _evaluate_move_chunk(
    chunk: MoveChunk,
) -> Tuple[
    List[Optional[EvaluatedDesign]], int, int, Tuple[int, int, int]
]:
    """Worker-side evaluation of one move chunk.

    Returns the outcomes in move order plus the worker's delta
    hit/fallback counts and stage-time deltas for this chunk.
    """
    assert _WORKER_STATE is not None, "worker initializer did not run"
    _, compiled, delta, _, timings, _store = _WORKER_STATE
    signature, payload, moves = chunk
    before = timings.snapshot()
    parent = _resident_parent(signature, payload)
    outcomes: List[Optional[EvaluatedDesign]] = []
    hits = 0
    fallbacks = 0
    for move in moves:
        if parent is None or delta is None:
            # The parent itself is invalid (strategies never send such
            # parents; defensive) -- evaluate the child cold.
            child = move.apply(_payload_design(payload))
            outcomes.append(
                evaluate_candidate(
                    compiled, child, record_trace=True, timings=timings
                )
            )
            fallbacks += 1
            continue
        outcome, used = delta.evaluate_move(parent, move)
        outcomes.append(outcome)
        if used:
            hits += 1
        else:
            fallbacks += 1
    return outcomes, hits, fallbacks, timings.since(before)


def _payload_design(payload: Payload) -> "CandidateDesign":
    """Rebuild a candidate design from its wire form."""
    from repro.core.transformations import CandidateDesign
    from repro.model.mapping import Mapping

    spec = _WORKER_STATE[0]
    assignment, priorities, delays = payload
    return CandidateDesign(
        Mapping(spec.current, spec.architecture, assignment),
        dict(priorities),
        dict(delays),
    )


def _to_payload(design: "CandidateDesign") -> Payload:
    """Strip a candidate down to plain dicts for cheap pickling."""
    return (
        design.mapping.as_dict(),
        dict(design.priorities),
        dict(design.message_delays),
    )


class BatchEvaluator:
    """Scores lists of candidates, concurrently when it pays off.

    Parameters
    ----------
    compiled:
        The compiled problem every candidate belongs to.
    jobs:
        Worker-process count; ``1`` (the default) never forks.
    parallel_threshold:
        Minimum :attr:`CompiledSpec.total_jobs` for the process pool to
        engage; smaller problems always evaluate serially.  Tests force
        the pool with ``parallel_threshold=0``.
    use_delta:
        Enable the incremental (move-aware) evaluation path and trace
        recording on cold evaluations.  Off, every evaluation is a full
        rescheduling and the move APIs degrade to candidate batches.
    store_path:
        Database file of the engine's persistent result store; workers
        open it read-only and serve dispatched payloads from it before
        solving cold.  ``None`` (no store, or a memory backend)
        disables worker read-through.
    store_scenario:
        Scenario key the store rows are filed under (forwarded to the
        workers' read-only store views).
    """

    def __init__(
        self,
        compiled: CompiledSpec,
        jobs: int = 1,
        parallel_threshold: Optional[int] = None,
        use_delta: bool = True,
        store_path: Optional[str] = None,
        store_scenario: Optional[str] = None,
    ):
        self.compiled = compiled
        self.jobs = max(1, int(jobs))
        self.parallel_threshold = (
            DEFAULT_PARALLEL_THRESHOLD
            if parallel_threshold is None
            else parallel_threshold
        )
        self.timings = StageTimings()
        self.delta: Optional[DeltaEvaluator] = (
            DeltaEvaluator(compiled, self.timings) if use_delta else None
        )
        self.delta_hits = 0
        self.delta_fallbacks = 0
        #: Candidates pool workers served from the persistent store.
        self.store_hits = 0
        self.store_path = store_path
        self.store_scenario = store_scenario
        self._executor: Optional[Executor] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "BatchEvaluator is closed; evaluation after close() would "
                "have to respawn worker processes behind the caller's back "
                "-- build a fresh engine instead"
            )

    def evaluate_one(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Serial full evaluation of a single candidate.

        In delta mode the outcome carries its column trace so it can
        parent later incremental evaluations.

        Raises
        ------
        RuntimeError
            If the evaluator has been closed.
        """
        self._ensure_open()
        return evaluate_candidate(
            self.compiled,
            design,
            record_trace=self.delta is not None,
            timings=self.timings,
        )

    def evaluate_move_one(
        self,
        parent: Optional[EvaluatedDesign],
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Optional[EvaluatedDesign]:
        """Serial evaluation of one move (the delta engine hot path).

        Falls back to :meth:`evaluate_one` -- counting a delta fallback
        -- when the incremental path cannot run.
        """
        self._ensure_open()
        if self.delta is None:
            return self.evaluate_one(child)
        if parent is None or parent.trace is None:
            self.delta_fallbacks += 1
            return self.evaluate_one(child)
        outcome, used = self.delta.evaluate_move(parent, move, child)
        if used:
            self.delta_hits += 1
        else:
            self.delta_fallbacks += 1
        return outcome

    def evaluate_batch(
        self, designs: Sequence["CandidateDesign"]
    ) -> List[Optional[EvaluatedDesign]]:
        """Score ``designs``, preserving input order exactly.

        Raises
        ------
        RuntimeError
            If the evaluator has been closed.
        """
        self._ensure_open()
        designs = list(designs)
        if not self._use_pool(len(designs)):
            return [self.evaluate_one(design) for design in designs]
        executor = self._ensure_executor()
        payloads = [_to_payload(design) for design in designs]
        chunksize = dispatch_chunksize(len(payloads), self.jobs)
        outcomes: List[Optional[EvaluatedDesign]] = []
        try:
            for outcome, stage_delta, from_store in executor.map(
                _evaluate_payload, payloads, chunksize=chunksize
            ):
                outcomes.append(outcome)
                self.timings.add(stage_delta)
                if from_store:
                    self.store_hits += 1
        except BaseException:
            self._abort_pool()
            raise
        self._reattach(designs, outcomes)
        return outcomes

    def evaluate_moves(
        self,
        parent: Optional[EvaluatedDesign],
        moves: Sequence["Transformation"],
        children: Sequence["CandidateDesign"],
    ) -> List[Optional[EvaluatedDesign]]:
        """Score one parent's moves, preserving input order exactly.

        ``children`` must be ``[move.apply(parent.design)]`` in move
        order (the engine already materializes them for cache keying).
        The pool path ships the parent once per chunk and only
        ``(signature, move)`` per candidate; each worker keeps recent
        parents resident and replays moves incrementally against them.

        Raises
        ------
        RuntimeError
            If the evaluator has been closed.
        """
        self._ensure_open()
        moves = list(moves)
        children = list(children)
        if self.delta is None or parent is None or parent.trace is None:
            if self.delta is not None:
                self.delta_fallbacks += len(moves)
            return self.evaluate_batch(children)
        if not self._use_pool(len(moves)):
            return [
                self.evaluate_move_one(parent, move, child)
                for move, child in zip(moves, children)
            ]
        executor = self._ensure_executor()
        signature = self.compiled.signature(parent.design)
        payload = _to_payload(parent.design)
        chunksize = dispatch_chunksize(len(moves), self.jobs)
        chunks: List[MoveChunk] = [
            (signature, payload, tuple(moves[i : i + chunksize]))
            for i in range(0, len(moves), chunksize)
        ]
        outcomes: List[Optional[EvaluatedDesign]] = []
        try:
            for chunk_outcomes, hits, fallbacks, stage_delta in executor.map(
                _evaluate_move_chunk, chunks
            ):
                outcomes.extend(chunk_outcomes)
                self.delta_hits += hits
                self.delta_fallbacks += fallbacks
                self.timings.add(stage_delta)
        except BaseException:
            self._abort_pool()
            raise
        self._reattach(children, outcomes)
        return outcomes

    def close(self) -> None:
        """Shut the worker pool down for good (idempotent).

        Closing is sticky: later ``evaluate_*`` calls raise instead of
        silently recreating a pool (or degrading to serial), so a
        closed evaluator never owns untracked processes and misuse is
        loud rather than slow.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _abort_pool(self) -> None:
        """Emergency pool teardown after an in-flight failure.

        Used when consuming chunk results raises -- a worker died
        mid-chunk (``BrokenProcessPool``), a move's evaluation raised,
        or the driving process got a ``KeyboardInterrupt``.  The pool
        is *terminated*, never joined: a worker stuck or dead mid-chunk
        must not block the raising thread, pending futures are
        cancelled, and surviving processes are killed outright.  Chunk
        results not yet consumed are dropped with their
        :class:`StageTimings` deltas -- deltas merge only on clean
        receipt, so a dead worker's partial chunk can never be counted
        (or double-counted) in the engine's sink.  Closing stays
        sticky: the evaluator refuses further work exactly like after
        :meth:`close`.
        """
        self._closed = True
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _reattach(
        self,
        designs: Sequence["CandidateDesign"],
        outcomes: Sequence[Optional[EvaluatedDesign]],
    ) -> None:
        """Point worker results back at the caller's design objects.

        Workers rebuild candidates from their wire form, so their
        results reference private Application/Architecture/Mapping
        copies.  Only the metrics and delta attachments are worth
        keeping from the worker; downstream consumers (cache,
        DesignResult) keep referencing the one true model object graph.
        Outcomes additionally regain their process-local decode
        substrate (the compiled spec) and the engine's timing sink,
        both of which pickling dropped.
        """
        for design, outcome in zip(designs, outcomes):
            if outcome is None:
                continue
            outcome.design = design
            if outcome._compiled is None:
                outcome._compiled = self.compiled
            if outcome._timings is None:
                outcome._timings = self.timings

    def _use_pool(self, batch_size: int) -> bool:
        return (
            not self._closed
            and self.jobs > 1
            and batch_size >= MIN_PARALLEL_BATCH
            and self.compiled.total_jobs >= self.parallel_threshold
        )

    def _ensure_executor(self) -> Executor:
        self._ensure_open()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(
                    self.compiled.spec,
                    self.delta is not None,
                    self.store_path,
                    self.store_scenario,
                ),
            )
        return self._executor
