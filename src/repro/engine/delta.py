"""Move-aware incremental (delta) evaluation of candidate designs.

Every candidate a search strategy proposes differs from its *parent* by
one transformation -- a remap, a priority swap, or a message delay.  A
cold evaluation nevertheless rebuilds the entire system schedule from
the compiled spec, redoing work that is byte-identical to the parent's
for every decision before the move first matters.

:class:`DeltaEvaluator` exploits that structure in three steps over the
parent's recorded :class:`~repro.sched.arrays.ArrayRunState` columns:

1. **Divergence analysis** (:meth:`ArraySpec.divergence`).  The move's
   :class:`~repro.core.transformations.MoveFootprint` is turned into
   the earliest event index ``d`` at which the child's scheduling pass
   can differ: placement-dirty processes matter from the first pop of
   one of their instances; re-keyed (priority-dirty) jobs matter from
   the first recorded pop their new key would win -- or from their own
   pop when the new key is weaker.  Events before ``d`` are provably
   identical in parent and child.

2. **Checkpoint reconstruction** (:meth:`ArraySpec.resume_state`).  The
   child's loop state at ``d`` is rebuilt from column slices of the
   parent's trace, without scheduling the prefix again.

3. **Resume.**  :meth:`ArraySpec.run_kernel` -- the same loop a cold
   pass runs -- finishes the schedule from ``d``, and the finished
   state is priced cold by the compiled metric kernel.

The result is **bit-identical** to a cold evaluation: same metrics,
same failure reasons for invalid children, and a column trace equal to
what a cold traced run would have produced (so children chain as
parents).  When any precondition fails -- the parent has no recorded
state, the move type is unknown, or the divergence is at event 0 --
the evaluator *falls back to a full cold evaluation*; it never guesses.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)
from repro.sched.arrays import ArrayRunState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transformations import CandidateDesign, Transformation
    from repro.engine.compiled_spec import CompiledSpec


class DeltaEvaluator:
    """Evaluates ``(parent, move)`` pairs by rescheduling from a checkpoint.

    Parameters
    ----------
    compiled:
        The compiled design problem shared with cold evaluation.
    timings:
        Stage-time sink the scheduling and pricing time accumulates in.
    """

    def __init__(
        self,
        compiled: "CompiledSpec",
        timings: Optional[StageTimings] = None,
    ):
        self.compiled = compiled
        self.timings = timings

    def evaluate_move(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: Optional["CandidateDesign"] = None,
    ) -> Tuple[Optional[EvaluatedDesign], bool]:
        """Evaluate the child of ``(parent, move)``.

        Returns ``(outcome, used_delta)``: the outcome is exactly what
        a cold evaluation of ``move.apply(parent.design)`` returns
        (``None`` for invalid children), and ``used_delta`` reports
        whether the incremental path ran or the evaluator fell back to
        a full evaluation.  The finished child state is priced cold by
        :func:`repro.core.array_metrics.evaluate_state`; no object
        schedule is decoded (the outcome decodes lazily if a consumer
        ever asks).
        """
        from repro.core.array_metrics import evaluate_state

        if child is None:
            child = move.apply(parent.design)
        timings = self.timings
        start = time.perf_counter_ns()
        state = self.try_resume_arrays(parent, move, child)
        mid = time.perf_counter_ns()
        if timings is not None:
            timings.sched_ns += mid - start
        if state is None:
            outcome = evaluate_candidate(
                self.compiled, child, record_trace=True, timings=timings
            )
            return outcome, False
        if not state.success:
            return None, True
        spec = self.compiled.spec
        metrics = evaluate_state(
            self.compiled.arrays, state, spec.future, spec.weights
        )
        if timings is not None:
            timings.metrics_ns += time.perf_counter_ns() - mid
        outcome = EvaluatedDesign(
            child, metrics, trace=state,
            compiled=self.compiled, state=state, timings=timings,
        )
        return outcome, True

    def try_resume_arrays(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Optional[ArrayRunState]:
        """Reschedule the child from the parent's earliest dirty event.

        Returns ``None`` when the incremental path cannot run (parent
        without a recorded array state, unknown move type, or
        divergence at event 0); otherwise the finished child state,
        whose success flag and failure reason equal a cold pass's.
        """
        state = parent.trace
        if not isinstance(state, ArrayRunState) or not state.record:
            return None
        footprint = getattr(move, "footprint", None)
        if footprint is None:
            return None
        fp = footprint(parent.design)
        arrays = self.compiled.arrays
        cand = arrays.lower_candidate(child)
        d = arrays.divergence(
            state, fp, parent.design.priorities, child.priorities, cand.urg
        )
        if d <= 0:
            return None
        resumed = arrays.resume_state(state, cand, d)
        arrays.run_kernel(resumed)
        return resumed
