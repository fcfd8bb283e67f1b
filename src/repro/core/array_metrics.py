"""Array-native metric kernel: the slide-14 objective on SoA columns.

The structure-of-arrays scheduler core finishes a candidate as a
state -- per-node sorted busy-run columns plus one flat used-bytes
vector over the TDMA slot occurrences, either inside the compiled
pass's state block (:class:`~repro.sched.arrays.ArrayBlockState`) or
as Python lists (:class:`~repro.sched.arrays.ArrayRunState`).  This
module prices that state directly, in two halves:

* **The integer core** reduces the state to four integers: the
  unplaced future-process total (best fit into the node slack gaps),
  C2P (the sum over nodes of the minimum per-``T_min``-window slack),
  the unplaced future-message total (best fit into the slot
  residuals) and C2M (the minimum per-window free bus bytes).  It runs
  in C (``price_state`` of :mod:`repro.sched.ckernel`, reading the
  block in place; a list state is packed into a block first) when the
  extension is available, and otherwise in :func:`price_counts_python`,
  the pure-Python kernel that also serves as the test oracle.
* **The float mixing** (:func:`mix_counts`) turns the four integers
  into :class:`~repro.core.metrics.DesignMetrics` with the object
  kernel's exact expressions, in the same order.

Because both integer kernels compute the same integers from the same
inputs, and the floats are always mixed by the same Python code, the
compiled and the Python path return bit-identical metrics, and both
equal :func:`repro.core.metrics.evaluate_design` on the decoded
schedule; the equivalence suite (``tests/engine/test_array_metrics.py``)
pins it across all scenario families.  The ablation packing policies
(first/worst fit) always run in Python: they rebuild the object
kernel's ordered container lists via the geometry's start-order
permutation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binpack import POLICIES, best_fit_unplaced_total_hist
from repro.core.future import FutureCharacterization
from repro.core.metrics import (
    DesignMetrics,
    ObjectiveWeights,
    _packing_inputs,
)
from repro.sched import ckernel
from repro.sched.arrays import (
    ArrayBlockState,
    ArrayMetricGeometry,
    ArraySpec,
    RunState,
)

#: ``(unplaced process total, C2P, unplaced message total, C2M)``.
PriceCounts = Tuple[int, int, int, int]


def _run_length(bag: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Run-length encode a descending-sorted bag as (size, count) pairs."""
    runs: List[Tuple[int, int]] = []
    i = 0
    n = len(bag)
    while i < n:
        size = bag[i]
        j = i + 1
        while j < n and bag[j] == size:
            j += 1
        runs.append((size, j - i))
        i = j
    return tuple(runs)


@lru_cache(maxsize=128)
def _packing_runs(
    future: FutureCharacterization, horizon: int
) -> Tuple[
    Tuple[int, ...], Tuple[Tuple[int, int], ...], int, int,
    Tuple[int, ...], Tuple[Tuple[int, int], ...], int, int,
]:
    """:func:`repro.core.metrics._packing_inputs` plus RLE encodings.

    Returns ``(process bag, its runs, total, min, message bag, its
    runs, total, min)``; the histogram best-fit kernel consumes the
    runs, the ablation policies the flat bags.  Cached per
    ``(future, horizon)`` like the object kernel's inputs.
    """
    (
        process_bag, process_total, process_min,
        message_bag, message_total, message_min,
    ) = _packing_inputs(future, horizon)
    return (
        process_bag, _run_length(process_bag), process_total, process_min,
        message_bag, _run_length(message_bag), message_total, message_min,
    )


def price_counts_python(
    arrays: ArraySpec,
    state: RunState,
    future: FutureCharacterization,
    policy: str = "best-fit",
) -> PriceCounts:
    """The integer core in pure Python: the oracle and the fallback.

    Node slack comes from one pass over each node's canonical busy
    runs (the column twin of
    :func:`repro.core.metrics._node_slack_data`); bus slack patches
    the geometry's base residual histogram and per-window free bytes
    at the occurrences where the state's used vector differs from the
    base.  ``policy`` selects the packing: best fit runs over value
    histograms, the ablation policies over the object kernel's ordered
    container lists.
    """
    geom = arrays.metric_geometry(future.t_min)
    (
        process_bag, process_runs, _, process_min,
        message_bag, message_runs, _, message_min,
    ) = _packing_runs(future, arrays.horizon)
    horizon = geom.horizon
    width = geom.window_width

    containers: List[int] = []
    c2p = 0
    for runs_s, runs_e in zip(state.runs_s, state.runs_e):
        busy = [0] * geom.n_windows
        cursor = 0
        for start, end in zip(runs_s, runs_e):
            if start - cursor >= process_min:
                containers.append(start - cursor)
            cursor = end
            k = start // width
            while start < end:
                boundary = (k + 1) * width
                if boundary >= end:
                    busy[k] += end - start
                    break
                busy[k] += boundary - start
                start = boundary
                k += 1
        if horizon - cursor >= process_min:
            containers.append(horizon - cursor)
        c2p += min(
            length - used for length, used in zip(geom.window_lengths, busy)
        )

    used = state.bus_used
    resid_hist = dict(geom.base_resid_hist)
    window_free = list(geom.base_window_free)
    caps = geom.caps_flat
    win = geom.win_flat
    for i in np.nonzero(used != geom.base_used)[0].tolist():
        cap = int(caps[i])
        before = int(geom.base_used[i])
        after = int(used[i])
        count = resid_hist[cap - before] - 1
        if count:
            resid_hist[cap - before] = count
        else:
            del resid_hist[cap - before]
        resid_hist[cap - after] = resid_hist.get(cap - after, 0) + 1
        w = int(win[i])
        if w >= 0:
            window_free[w] -= after - before
    c2m = min(window_free)

    lean = policy == "best-fit"
    pack = POLICIES[policy]
    process_unplaced = 0
    if process_bag:
        if lean:
            container_hist: Dict[int, int] = {}
            for length in containers:
                container_hist[length] = container_hist.get(length, 0) + 1
            process_unplaced = best_fit_unplaced_total_hist(
                process_runs, container_hist, consume=True
            )
        else:
            process_unplaced = sum(
                pack(process_bag, containers, decreasing=False).unplaced
            )
    message_unplaced = 0
    if message_bag:
        if lean:
            message_unplaced = best_fit_unplaced_total_hist(
                message_runs, resid_hist, consume=True
            )
        else:
            residuals = (caps - used)[geom.start_order]
            eligible = residuals[residuals >= message_min]
            message_unplaced = sum(
                pack(message_bag, eligible.tolist(), decreasing=False).unplaced
            )
    return process_unplaced, c2p, message_unplaced, c2m


@lru_cache(maxsize=32)
def _price_context(
    geom: ArrayMetricGeometry, future: FutureCharacterization
) -> ckernel.PriceContext:
    """The compiled kernel's inputs for one ``(geometry, future)`` pair."""
    kernel = ckernel.KERNEL
    assert kernel is not None
    (
        _, process_runs, _, process_min,
        _, message_runs, _, message_min,
    ) = _packing_runs(future, geom.horizon)
    return ckernel.PriceContext(
        kernel,
        geom,
        process_runs,
        process_min,
        message_runs,
        message_min,
    )


def price_counts(
    arrays: ArraySpec,
    state: RunState,
    future: FutureCharacterization,
    policy: str = "best-fit",
) -> PriceCounts:
    """The integer core: compiled for best fit when loaded, else Python.

    The compiled kernel reads a block state in place; a list state is
    packed into a block first.
    """
    if policy != "best-fit" or ckernel.KERNEL is None:
        return price_counts_python(arrays, state, future, policy)
    context = _price_context(arrays.metric_geometry(future.t_min), future)
    if isinstance(state, ArrayBlockState):
        return context.price(state.block)
    return context.price(arrays.pack_block(state))


def mix_counts(
    counts: PriceCounts,
    future: FutureCharacterization,
    horizon: int,
    weights: ObjectiveWeights,
) -> DesignMetrics:
    """The float half: percentages, penalties and the weighted objective.

    The object kernel's expressions in its order, so equal integers
    give bit-identical metrics.
    """
    process_unplaced, c2p, message_unplaced, c2m = counts
    (
        process_bag, _, process_total, _,
        message_bag, _, message_total, _,
    ) = _packing_runs(future, horizon)
    c1p = 100.0 * process_unplaced / process_total if process_bag else 0.0
    c1m = 100.0 * message_unplaced / message_total if message_bag else 0.0

    pen2p = max(0.0, float(future.t_need - c2p))
    pen2m = max(0.0, float(future.b_need - c2m))
    if weights.normalize_second:
        if future.t_need > 0:
            pen2p = 100.0 * pen2p / future.t_need
        if future.b_need > 0:
            pen2m = 100.0 * pen2m / future.b_need

    objective = (
        weights.w1p * c1p
        + weights.w1m * c1m
        + weights.w2p * pen2p
        + weights.w2m * pen2m
    )
    return DesignMetrics(c1p, c1m, c2p, c2m, pen2p, pen2m, objective)


def evaluate_state(
    arrays: ArraySpec,
    state: RunState,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
) -> DesignMetrics:
    """Price a finished array state; byte-identical to the object kernel."""
    if weights is None:
        weights = ObjectiveWeights()
    counts = price_counts(arrays, state, future, weights.binpack_policy)
    return mix_counts(counts, future, arrays.horizon, weights)


def evaluate_state_delta(
    arrays: ArraySpec,
    state: RunState,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
) -> Tuple[DesignMetrics, None]:
    """:func:`evaluate_state` in the delta API's ``(metrics, memo)`` shape.

    A compiled cold price is cheaper than patching a parent's memo, so
    array pricing keeps no memo and the second element is always
    ``None``.
    """
    return evaluate_state(arrays, state, future, weights), None
