"""The paper's design metrics and objective function (slides 12-14).

**First criterion -- slack sizes.**  How much of the hypothetical
largest future application cannot be mapped on the current design?
Future processes (WCET bag) are best-fit packed into processor slack
gaps, future messages (size bag) into TDMA slot residuals:

* ``C1P`` = percentage of future process demand left unpacked,
* ``C1m`` = percentage of future message demand left unpacked.

Both are 0 when the whole bag fits (slide 12's C1=0% cases) and grow
toward 100 as slack becomes scarce or fragmented.

**Second criterion -- slack distribution.**  The future application
returns every ``T_min``; the design must keep ``t_need`` processor time
and ``b_need`` bus bandwidth available in *every* ``T_min`` window:

* ``C2P`` = sum over processors of the minimum per-window slack,
* ``C2m`` = minimum per-window residual bus capacity.

**Objective function (slide 14, verbatim structure).**

``C = w1P*C1P + w1m*C1m + w2P*max(0, t_need - C2P) + w2m*max(0, b_need - C2m)``

With ``ObjectiveWeights.normalize_second`` (the default) the two
second-criterion penalty terms are expressed as percentages of
``t_need`` / ``b_need`` so all four terms share the 0-100 scale; the
slides do not specify the scaling, see DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.binpack import POLICIES, best_fit_unplaced_total
from repro.core.future import FutureCharacterization
from repro.core.slack import bus_slack_containers, processor_slack_containers
from repro.sched.schedule import SystemSchedule
from repro.utils.timemath import periodic_windows


# ----------------------------------------------------------------------
# first criterion
# ----------------------------------------------------------------------
def metric_c1p(
    schedule: SystemSchedule,
    future: FutureCharacterization,
    policy: str = "best-fit",
) -> float:
    """C1P: % of future *process* demand that does not fit in the slack.

    Parameters
    ----------
    schedule:
        The candidate design (current + existing applications).
    future:
        The future-application characterization.
    policy:
        Bin-packing policy name (``best-fit`` is the paper's choice).
    """
    bag = future.future_process_bag(schedule.horizon)
    if not bag:
        return 0.0
    containers = processor_slack_containers(schedule)
    result = POLICIES[policy](bag, containers)
    return 100.0 * result.unplaced_fraction


def metric_c1m(
    schedule: SystemSchedule,
    future: FutureCharacterization,
    policy: str = "best-fit",
) -> float:
    """C1m: % of future *message* demand that does not fit on the bus."""
    bag = future.future_message_bag(schedule.horizon)
    if not bag:
        return 0.0
    containers = bus_slack_containers(schedule)
    result = POLICIES[policy](bag, containers)
    return 100.0 * result.unplaced_fraction


# ----------------------------------------------------------------------
# second criterion
# ----------------------------------------------------------------------
def metric_c2p(schedule: SystemSchedule, future: FutureCharacterization) -> int:
    """C2P: sum over processors of the minimum per-T_min-window slack.

    Slide 13: the guaranteed processor time a future application of
    period ``T_min`` can count on in *every* one of its periods.
    """
    windows = periodic_windows(schedule.horizon, future.t_min)
    total = 0
    for node_id in schedule.architecture.node_ids:
        total += min(schedule.slack_within(node_id, w) for w in windows)
    return total


def metric_c2m(schedule: SystemSchedule, future: FutureCharacterization) -> int:
    """C2m: minimum per-T_min-window residual bus capacity (bytes)."""
    windows = periodic_windows(schedule.horizon, future.t_min)
    return min(schedule.bus.free_bytes_within(w) for w in windows)


# ----------------------------------------------------------------------
# objective
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the slide-14 objective function.

    Attributes
    ----------
    w1p, w1m:
        Weights of the first-criterion metrics (percentages).
    w2p, w2m:
        Weights of the second-criterion penalty terms.
    normalize_second:
        When True (default) the penalties ``max(0, t_need - C2P)`` and
        ``max(0, b_need - C2m)`` are scaled to percentages of
        ``t_need`` / ``b_need`` so all terms are commensurate.
    binpack_policy:
        Bin-packing policy used by the first criterion.
    """

    w1p: float = 1.0
    w1m: float = 1.0
    w2p: float = 1.0
    w2m: float = 1.0
    normalize_second: bool = True
    binpack_policy: str = "best-fit"

    def __post_init__(self) -> None:
        for name in ("w1p", "w1m", "w2p", "w2m"):
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name} must be non-negative")
        if self.binpack_policy not in POLICIES:
            raise ValueError(
                f"unknown bin-packing policy {self.binpack_policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )


def _node_slack_data(
    schedule: SystemSchedule, node_id: str, windows: List
) -> Tuple[List[int], int]:
    """Extract one node's metric inputs: slack gaps and C2P share.

    One pass over the node's canonical busy runs yields both the gap
    lengths (the complement inside the horizon, in gap order -- the
    node's C1P bin-packing containers) and the per-window busy time,
    whose worst window is the node's C2P contribution; equivalent to
    :meth:`SystemSchedule.slack_gaps` plus per-window
    :meth:`SystemSchedule.slack_within`, without building interval
    objects per evaluation.
    """
    horizon = schedule.horizon
    width = windows[0].length
    busy = [0] * len(windows)
    containers: List[int] = []
    cursor = 0
    for start, end in schedule.busy_pairs(node_id):
        if start > cursor:
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
    if cursor < horizon:
        containers.append(horizon - cursor)
    window_min = min(
        window.length - used for window, used in zip(windows, busy)
    )
    return containers, window_min


@lru_cache(maxsize=64)
def _bus_geometry(bus, horizon: int, t_min: int):
    """Static occurrence geometry of one bus/horizon/window setup.

    Returns ``(capacities, position index, window index, static
    per-window capacity)``: numpy capacity vector over all usable slot
    occurrences in window-start order, the ``(node, round) -> vector
    position`` map, the ``T_min`` window each occurrence lies fully
    inside (-1 when it straddles a boundary), and the total capacity
    per window.  Pure function of immutable inputs, cached across all
    evaluations of a spec.
    """
    from repro.tdma.schedule import occurrence_order

    order = occurrence_order(bus, horizon)
    capacities = np.array([cap for _, _, cap in order], dtype=np.int64)
    position = {
        (node_id, r): i for i, (node_id, r, _) in enumerate(order)
    }
    window_index = np.full(len(order), -1, dtype=np.int64)
    round_length = bus.round_length
    for i, (node_id, r, _) in enumerate(order):
        start = r * round_length + bus.slot_offset(node_id)
        length = bus.slot_of(node_id).length
        k = start // t_min
        if start + length <= min((k + 1) * t_min, horizon):
            window_index[i] = k
    n_windows = -(-horizon // t_min)
    static = np.zeros(n_windows, dtype=np.int64)
    inside = window_index >= 0
    np.add.at(static, window_index[inside], capacities[inside])
    return capacities, position, window_index, static


def _bus_slack_data(
    schedule: SystemSchedule, t_min: int
) -> Tuple["np.ndarray", List[int]]:
    """Extract the bus metric inputs (residual vector, window bytes).

    Equivalent to per-occurrence ``capacity - used`` in window-start
    order plus :meth:`BusSchedule.free_bytes_within` per window,
    computed from the cached geometry in one sparse pass over the
    used-bytes map.
    """
    capacities, position, window_index, static = _bus_geometry(
        schedule.bus.bus, schedule.horizon, t_min
    )
    residuals = capacities.copy()
    window_used = [0] * len(static)
    for key, used in schedule.bus.used_map().items():
        i = position[key]
        residuals[i] -= used
        w = window_index[i]
        if w >= 0:
            window_used[w] += used
    window_free = [
        int(cap) - used for cap, used in zip(static, window_used)
    ]
    return residuals, window_free


@lru_cache(maxsize=128)
def _packing_inputs(
    future: FutureCharacterization, horizon: int
) -> Tuple[Tuple[int, ...], int, int, Tuple[int, ...], int, int]:
    """Pre-sorted future bags for the C1 bin packings, cached per spec.

    Returns ``(process bag descending, its total, its min, message bag
    descending, its total, its min)``.  The bags are deterministic
    functions of ``(future, horizon)``, which never change inside a
    search run, so every evaluation reuses one sorted copy.  The
    minimum sizes drive an exact container prefilter: a slack gap (or
    slot residual) smaller than the smallest future object can never
    host anything, never influences any fit decision of the packing
    policies, and is dropped before packing.
    """
    process_bag = tuple(
        sorted(future.future_process_bag(horizon), reverse=True)
    )
    message_bag = tuple(
        sorted(future.future_message_bag(horizon), reverse=True)
    )
    return (
        process_bag,
        sum(process_bag),
        process_bag[-1] if process_bag else 1,
        message_bag,
        sum(message_bag),
        message_bag[-1] if message_bag else 1,
    )


@dataclass(frozen=True)
class DesignMetrics:
    """The four metric values plus the combined objective for a design."""

    c1p: float
    c1m: float
    c2p: int
    c2m: int
    penalty_2p: float
    penalty_2m: float
    objective: float

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"C1P={self.c1p:.1f}% C1m={self.c1m:.1f}% "
            f"C2P={self.c2p} C2m={self.c2m} "
            f"pen2P={self.penalty_2p:.1f} pen2m={self.penalty_2m:.1f} "
            f"C={self.objective:.2f}"
        )


def evaluate_design(
    schedule: SystemSchedule,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
) -> DesignMetrics:
    """Compute all four metrics and the combined objective ``C``.

    Smaller is better; 0 means the design leaves ideal room for the
    characterized future family.  This is the from-scratch object
    kernel (cached sorted bags, lean best-fit packing, single-pass
    slack extraction); the component functions
    :func:`metric_c1p`/:func:`metric_c1m`/:func:`metric_c2p`/
    :func:`metric_c2m` compute the same values the textbook way.
    """
    if weights is None:
        weights = ObjectiveWeights()
    windows = periodic_windows(schedule.horizon, future.t_min)
    node_ids = schedule.architecture.node_ids
    node_data = [
        _node_slack_data(schedule, node_id, windows) for node_id in node_ids
    ]
    bus_residuals, bus_window_free = _bus_slack_data(schedule, future.t_min)

    # First criterion: bin-pack the future bags into the slack.  The
    # default best-fit policy goes through the lean unplaced-total
    # kernel; the ablation policies take the generic packer.
    lean = weights.binpack_policy == "best-fit"
    pack = POLICIES[weights.binpack_policy]
    (
        process_bag,
        process_total,
        process_min,
        message_bag,
        message_total,
        message_min,
    ) = _packing_inputs(future, schedule.horizon)
    if process_bag:
        containers = [
            length
            for gaps, _ in node_data
            for length in gaps
            if length >= process_min
        ]
        if lean:
            unplaced_total = best_fit_unplaced_total(process_bag, containers)
        else:
            unplaced_total = sum(
                pack(process_bag, containers, decreasing=False).unplaced
            )
        c1p = 100.0 * unplaced_total / process_total
    else:
        c1p = 0.0
    if message_bag:
        eligible = bus_residuals[bus_residuals >= message_min]
        if lean:
            unplaced_total = best_fit_unplaced_total(message_bag, eligible)
        else:
            unplaced_total = sum(
                pack(message_bag, eligible.tolist(), decreasing=False).unplaced
            )
        c1m = 100.0 * unplaced_total / message_total
    else:
        c1m = 0.0
    c2m = int(min(bus_window_free))

    # Second criterion: worst-window slack per node, summed.
    c2p = sum(window_min for _, window_min in node_data)

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
