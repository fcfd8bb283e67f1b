"""The single candidate-evaluation primitive every search loop shares.

``evaluate_candidate`` is the pure function at the bottom of the whole
optimization stack: schedule one :class:`CandidateDesign` with the
compiled problem and price the result with the slide-14 objective.  The
engine's cache-miss path, its uncached path, its move path and the
delta kernel's fallback all call exactly this function, which is what
makes cached, uncached and sharded runs bit-identical.

The hot path never leaves the flat representation: the compiled pass
fills one state block (:class:`~repro.sched.arrays.ArrayBlockState`),
the metrics are priced directly on that block
(:mod:`repro.core.array_metrics`), and the object
:class:`~repro.sched.schedule.SystemSchedule` is decoded **lazily** --
:attr:`EvaluatedDesign.schedule` re-runs the pass with trace columns
on first access (accepted incumbents, serialization, verify, figures),
while the thousands of rejected candidates per search never pay for
it.  An outcome keeps no block.

Imports from :mod:`repro.core` are deferred to call time: the engine
package sits between ``sched`` and ``core`` in the layer diagram
(``core.strategy`` imports the engine), so importing core modules at
module scope would be circular.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping as TMapping, Optional

from repro.sched.arrays import ArrayRunState
from repro.sched.schedule import SystemSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import DesignMetrics
    from repro.core.transformations import CandidateDesign
    from repro.engine.compiled_spec import CompiledSpec
    from repro.model.mapping import Mapping


class StageTimings:
    """Nanosecond wall-time buckets of the evaluation pipeline.

    One mutable sink per engine: scheduling, metric pricing and
    schedule decode accumulate separately, so the per-stage Amdahl
    split of a search run is visible in the engine statistics without
    a profiler.  Time recorded here feeds reporting
    only -- never a scheduling decision.
    """

    __slots__ = ("sched_ns", "metrics_ns", "decode_ns")

    def __init__(
        self, sched_ns: int = 0, metrics_ns: int = 0, decode_ns: int = 0
    ) -> None:
        self.sched_ns = sched_ns
        self.metrics_ns = metrics_ns
        self.decode_ns = decode_ns


class EvaluatedDesign:
    """A valid candidate design with its metric values.

    ``trace`` is the incremental-evaluation attachment (present only
    for ``evaluate_candidate(..., record_trace=True)`` outcomes and
    :class:`~repro.engine.delta.DeltaEvaluator` children): the finished
    :class:`~repro.sched.arrays.ArrayRunState` with its recorded
    columns, which lets a *child* design -- one move away -- be
    scheduled from this design's checkpoints instead of from scratch.

    :attr:`schedule` is **lazy**: the constructor receives a finished
    list state with trace columns, or nothing (hot-path and
    store-served outcomes), and the object :class:`SystemSchedule` is
    decoded on first access against the compiled spec, re-running the
    deterministic pass with trace columns when no such state is kept.
    The decode is cached, so incumbents price the conversion once;
    rejected candidates never do.
    """

    __slots__ = (
        "design", "metrics", "trace",
        "_schedule", "_state", "_compiled", "_timings",
    )

    def __init__(
        self,
        design: "CandidateDesign",
        metrics: "DesignMetrics",
        trace: Optional[ArrayRunState] = None,
        *,
        compiled: "CompiledSpec",
        state: Optional[ArrayRunState] = None,
        timings: Optional[StageTimings] = None,
    ) -> None:
        self.design = design
        self.metrics = metrics
        self.trace = trace
        self._schedule: Optional[SystemSchedule] = None
        self._state = state
        self._compiled: Optional["CompiledSpec"] = compiled
        self._timings = timings

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> SystemSchedule:
        """The object schedule, decoded on demand and cached.

        Decodes the kept list state; an outcome without one with trace
        columns (the hot path keeps none, a store-served outcome
        persisted metrics only) first re-runs the deterministic pass
        with columns.
        """
        schedule = self._schedule
        if schedule is None:
            if self._compiled is None:
                raise ValueError(
                    "EvaluatedDesign lost its decode substrate (shipped "
                    "without re-attaching the compiled spec)"
                )
            arrays = self._compiled.arrays
            start = time.perf_counter_ns()
            state = self._state
            if state is None or not state.columns:
                traced = arrays.schedule_design(
                    self.design, record=False, columns=True
                )
                # A pass with columns always runs the list kernel.
                if not isinstance(traced, ArrayRunState) or not traced.success:
                    raise ValueError(
                        "stored design no longer schedules; the result "
                        "store and the compiled spec disagree"
                    )
                state = traced
            schedule = arrays.decode_schedule(state)
            self._schedule = schedule
            timings = self._timings
            if timings is not None:
                timings.decode_ns += time.perf_counter_ns() - start
        return schedule

    @property
    def objective(self) -> float:
        return self.metrics.objective

    @property
    def mapping(self) -> "Mapping":
        """The design's read-only mapping view."""
        return self.design.mapping

    @property
    def priorities(self) -> TMapping[str, float]:
        """The design's read-only priority view."""
        return self.design.priorities

    # ------------------------------------------------------------------
    # pickling (result-store payloads and shard IPC): the compiled spec
    # and the timing sink stay process-local and are dropped; an
    # unpickled outcome decodes only after its compiled spec is
    # re-attached.
    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_compiled", "_timings")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._compiled = None
        self._timings = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        decoded = "decoded" if self._schedule is not None else "lazy"
        return (
            f"EvaluatedDesign(objective={self.metrics.objective:.4f}, "
            f"schedule={decoded})"
        )


def evaluate_candidate(
    compiled: "CompiledSpec",
    design: "CandidateDesign",
    record_trace: bool = False,
    timings: Optional[StageTimings] = None,
) -> Optional[EvaluatedDesign]:
    """Schedule and price one candidate; ``None`` when it is invalid.

    Deterministic: equal ``(spec, design)`` always produce the same
    outcome, which the evaluation cache relies on.  The hot path runs
    the compiled pass over a state block and keeps no state; with
    ``record_trace`` the list kernel records the pass's column trace
    and the outcome carries it, making it usable as the parent of delta
    evaluations.  The metric *values* are identical either way.
    ``timings`` (when given) accumulates per-stage wall time.
    """
    from repro.core.array_metrics import evaluate_state

    spec = compiled.spec
    arrays = compiled.arrays
    start = time.perf_counter_ns()
    state = arrays.schedule_design(design, record=record_trace)
    mid = time.perf_counter_ns()
    if timings is not None:
        timings.sched_ns += mid - start
    if not state.success:
        return None
    metrics = evaluate_state(arrays, state, spec.future, spec.weights)
    if timings is not None:
        timings.metrics_ns += time.perf_counter_ns() - mid
    kept = state if record_trace and isinstance(state, ArrayRunState) else None
    return EvaluatedDesign(
        design, metrics, trace=kept,
        compiled=compiled, state=kept, timings=timings,
    )
