"""The object-kernel oracle the array runtime is checked against.

The runtime evaluates every candidate on the structure-of-arrays core
(:mod:`repro.sched.arrays` + :mod:`repro.core.array_metrics`), through
the compiled pass and price over one state block when the extension is
loaded.  The object kernel -- :meth:`ListScheduler.try_schedule`
followed by the from-scratch :func:`evaluate_design` -- stays in
``src`` as the reference implementation; these helpers run it on one
candidate and compare a runtime outcome against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import evaluate_design
from repro.engine.engine import EvaluationEngine
from repro.sched.list_scheduler import ListScheduler


def occupancy(schedule):
    """Canonical rendering of a schedule's full occupancy."""
    nodes = {
        node_id: sorted(
            (e.process_id, e.instance, e.start, e.end, e.frozen)
            for e in schedule.entries_on(node_id)
        )
        for node_id in schedule.architecture.node_ids
    }
    bus = sorted(
        (o.message_id, o.instance, o.node_id, o.round_index, o.size, o.frozen)
        for o in schedule.bus.all_entries()
    )
    return nodes, bus


def trace_identity(trace):
    """Canonical rendering of a :class:`ScheduleTrace`."""
    return (
        [tuple(event) for event in trace.events],
        trace.ready_at,
        trace.pop_index,
        trace.node_last,
        trace.bus_last,
    )


def oracle(spec, design, record_trace: bool = False):
    """Schedule ``design`` with the object kernel and price it from scratch.

    Returns ``(ScheduleResult, metrics)``; ``metrics`` is ``None`` when
    the candidate is invalid.  The scheduler derives the job table,
    horizon and base copy itself -- nothing is shared with the runtime's
    compiled spec.
    """
    result = ListScheduler(spec.architecture).try_schedule(
        spec.current,
        design.mapping,
        base=spec.base_schedule,
        priorities=design.priorities,
        horizon=spec.effective_horizon(),
        message_delays=design.message_delays,
        record_trace=record_trace,
    )
    if not result.success:
        return result, None
    return result, evaluate_design(result.schedule, spec.future, spec.weights)


def runtime_occupancy(arrays, design):
    """Busy runs per node and used bytes per slot occurrence of the
    runtime pass (the compiled block pass when the extension is loaded)."""
    state = arrays.schedule_design(design)
    return state.runs_s, state.runs_e, np.asarray(state.bus_used).tolist()


def object_occupancy(arrays, schedule):
    """:func:`runtime_occupancy`'s shape for an object schedule."""
    runs_s, runs_e = [], []
    for node_id in arrays.node_ids:
        pairs = schedule.busy_pairs(node_id)
        runs_s.append([start for start, _ in pairs])
        runs_e.append([end for _, end in pairs])
    used = [0] * arrays.n_occ
    for occ in schedule.bus.all_entries():
        node = arrays.node_index[occ.node_id]
        used[arrays.occ_base[node] + occ.round_index] += occ.size
    return runs_s, runs_e, used


def assert_matches_oracle(spec, design, outcome, arrays=None, label=""):
    """``outcome`` (an ``EvaluatedDesign`` or ``None``) equals the oracle.

    Validity, the full schedule occupancy and every metric value must
    match, and so must the runtime pass's own final state (busy runs and
    slot bytes, read before any decode).  With ``arrays`` (the
    candidate's :class:`ArraySpec`) and a recorded outcome trace, the
    decoded column trace must also equal the object kernel's
    :class:`ScheduleTrace`.
    """
    result, metrics = oracle(
        spec, design, record_trace=arrays is not None
    )
    assert (outcome is None) == (not result.success), label
    if outcome is None:
        return
    runtime = outcome._compiled.arrays
    assert runtime_occupancy(runtime, design) == object_occupancy(
        runtime, result.schedule
    ), label
    assert occupancy(outcome.schedule) == occupancy(result.schedule), label
    assert outcome.metrics == metrics, label
    if arrays is not None and outcome.trace is not None:
        assert trace_identity(result.trace) == trace_identity(
            arrays.to_schedule_trace(outcome.trace)
        ), label


def _design_key(design):
    return (
        tuple(sorted(design.mapping.as_dict().items())),
        tuple(sorted(design.priorities.items())),
        tuple(sorted(design.message_delays.items())),
    )


def record_candidates(monkeypatch):
    """Record every candidate the evaluation engine serves.

    Patches the four public :class:`EvaluationEngine` entry points and
    returns a dict ``{design key: (design, outcome)}`` that fills up
    as searches run, one entry per distinct candidate.
    """
    seen = {}

    def wrap(name, designs_of):
        original = getattr(EvaluationEngine, name)

        def wrapper(self, *args):
            out = original(self, *args)
            outcomes = out if isinstance(out, list) else [out]
            for design, outcome in zip(designs_of(*args), outcomes):
                seen.setdefault(_design_key(design), (design, outcome))
            return out

        monkeypatch.setattr(EvaluationEngine, name, wrapper)

    wrap("evaluate", lambda design: [design])
    wrap("evaluate_many", lambda designs: list(designs))
    wrap("evaluate_move", lambda parent, move: [move.apply(parent.design)])
    wrap(
        "evaluate_moves",
        lambda parent, moves: [move.apply(parent.design) for move in moves],
    )
    return seen


def assert_search_matches_oracle(spec, seen):
    """Every candidate a recorded search visited matches the oracle."""
    assert seen, "the search evaluated no candidates"
    for design, outcome in seen.values():
        assert_matches_oracle(spec, design, outcome)
