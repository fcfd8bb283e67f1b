"""The system schedule table.

A :class:`SystemSchedule` records, over one hyperperiod:

* per processing node, the non-overlapping reservations of process
  instances (a :class:`repro.utils.intervals.IntervalSet` of busy time
  plus the individual :class:`ScheduledProcess` entries), and
* the bus occupancy (a :class:`repro.tdma.schedule.BusSchedule`).

Entries can be *frozen*: they belong to existing applications and the
incremental design process is forbidden from touching them (the
paper's requirement (a)).  The design metrics consume the schedule
through :meth:`SystemSchedule.slack_gaps` (processor slack) and the bus
schedule's residual queries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.architecture import Architecture
from repro.tdma.schedule import BusSchedule
from repro.utils.errors import SchedulingError
from repro.utils.intervals import Interval, IntervalSet


@dataclass(frozen=True)
class ScheduledProcess:
    """One scheduled instance of a process.

    Attributes
    ----------
    process_id:
        The process this entry executes.
    instance:
        Periodic instance index (0-based within the hyperperiod).
    node_id:
        The node the instance runs on.
    start, end:
        Half-open execution window ``[start, end)`` in time units.
    frozen:
        True for entries of existing applications (must not move).
    """

    process_id: str
    instance: int
    node_id: str
    start: int
    end: int
    frozen: bool = False

    @property
    def interval(self) -> Interval:
        """The execution window as an interval."""
        return Interval(self.start, self.end)

    @property
    def duration(self) -> int:
        return self.end - self.start


class SystemSchedule:
    """Processor and bus schedule tables over one hyperperiod.

    Parameters
    ----------
    architecture:
        The platform (nodes + TDMA bus).
    horizon:
        Schedule length in time units; normally the hyperperiod of all
        applications in the scenario.
    """

    def __init__(self, architecture: Architecture, horizon: int):
        if horizon <= 0:
            raise SchedulingError(
                f"schedule horizon must be positive, got {horizon}"
            )
        self.architecture = architecture
        self.horizon = horizon
        self._busy: Dict[str, IntervalSet] = {
            node_id: IntervalSet() for node_id in architecture.node_ids
        }
        self._entries: Dict[str, List[ScheduledProcess]] = {
            node_id: [] for node_id in architecture.node_ids
        }
        self._by_process: Dict[Tuple[str, int], ScheduledProcess] = {}
        self.bus = BusSchedule(architecture.bus, horizon)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place_process(
        self,
        process_id: str,
        instance: int,
        node_id: str,
        start: int,
        duration: int,
        frozen: bool = False,
    ) -> ScheduledProcess:
        """Reserve ``[start, start+duration)`` on ``node_id``.

        Raises
        ------
        repro.utils.errors.SchedulingError
            On overlap with an existing reservation, an out-of-horizon
            window, or a duplicate (process, instance).
        """
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        if duration <= 0:
            raise SchedulingError(
                f"process {process_id!r} has non-positive duration {duration}"
            )
        if start < 0 or start + duration > self.horizon:
            raise SchedulingError(
                f"process {process_id!r} instance {instance} window "
                f"[{start}, {start + duration}) leaves the horizon "
                f"[0, {self.horizon})"
            )
        key = (process_id, instance)
        if key in self._by_process:
            raise SchedulingError(
                f"process {process_id!r} instance {instance} already scheduled"
            )
        window = Interval(start, start + duration)
        try:
            self._busy[node_id].add_busy(window)
        except ValueError:
            raise SchedulingError(
                f"process {process_id!r} instance {instance} overlaps busy "
                f"time on node {node_id!r} at {window}"
            ) from None
        entry = ScheduledProcess(process_id, instance, node_id, start, start + duration, frozen)
        self._entries[node_id].append(entry)
        self._by_process[key] = entry
        return entry

    def remove_process(self, process_id: str, instance: int) -> None:
        """Remove a non-frozen process instance and free its time.

        Raises
        ------
        repro.utils.errors.SchedulingError
            If the instance is unknown or frozen.
        """
        key = (process_id, instance)
        entry = self._by_process.get(key)
        if entry is None:
            raise SchedulingError(
                f"process {process_id!r} instance {instance} is not scheduled"
            )
        if entry.frozen:
            raise SchedulingError(
                f"process {process_id!r} instance {instance} belongs to an "
                f"existing application and cannot be removed"
            )
        self._entries[entry.node_id].remove(entry)
        del self._by_process[key]
        # Rebuild the busy set of the affected node (removal from an
        # IntervalSet with merged adjacency needs the entry list anyway).
        rebuilt = IntervalSet()
        for other in self._entries[entry.node_id]:
            rebuilt.add_busy(other.interval)
        self._busy[entry.node_id] = rebuilt

    def freeze_all(self) -> None:
        """Mark every current entry (processes and messages) frozen.

        Called once after the existing applications are scheduled, so
        the incremental design process cannot modify them.
        """
        for node_id, entries in self._entries.items():
            self._entries[node_id] = [replace(e, frozen=True) for e in entries]
        self._by_process = {
            (e.process_id, e.instance): e
            for entries in self._entries.values()
            for e in entries
        }
        frozen_bus = BusSchedule(self.bus.bus, self.horizon)
        for occ in self.bus.all_entries():
            frozen_bus.place(
                occ.message_id,
                occ.instance,
                occ.node_id,
                occ.round_index,
                occ.size,
                frozen=True,
            )
        self.bus = frozen_bus

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries_on(self, node_id: str) -> List[ScheduledProcess]:
        """Entries on ``node_id`` sorted by start time."""
        if node_id not in self._entries:
            raise SchedulingError(f"unknown node {node_id!r}")
        return sorted(self._entries[node_id], key=lambda e: (e.start, e.end))

    def all_entries(self) -> Iterator[ScheduledProcess]:
        """Every process entry in the schedule."""
        for entries in self._entries.values():
            yield from entries

    def entry_of(self, process_id: str, instance: int) -> Optional[ScheduledProcess]:
        """The entry of a process instance, or None if unscheduled."""
        return self._by_process.get((process_id, instance))

    def busy_pairs(self, node_id: str) -> List[Tuple[int, int]]:
        """The node's busy runs as plain ``(start, end)`` tuples.

        Allocation-free view for the metric extraction hot path.
        """
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        return self._busy[node_id].as_pairs()

    def busy_set(self, node_id: str) -> IntervalSet:
        """A copy of the busy-time set of ``node_id``."""
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        return self._busy[node_id].copy()

    def earliest_fit(self, node_id: str, duration: int, not_before: int) -> int:
        """Earliest start of a gap of ``duration`` on ``node_id``.

        The returned start may leave insufficient room before the
        horizon; the caller (the list scheduler) checks deadlines and
        the horizon bound.
        """
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        fit = self._busy[node_id].earliest_fit(duration, not_before)
        assert fit is not None  # earliest_fit only returns None for dur<0
        return fit

    def slack_gaps(self, node_id: str) -> List[Interval]:
        """Free gaps on ``node_id`` within the horizon (the slack).

        This is the raw material of both design criteria: metric C1P
        bin-packs future processes into these gaps; metric C2P measures
        their distribution across T_min windows.
        """
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        return self._busy[node_id].complement(Interval(0, self.horizon)).intervals()

    def slack_within(self, node_id: str, window: Interval) -> int:
        """Free time units of ``node_id`` inside ``window``."""
        if node_id not in self._busy:
            raise SchedulingError(f"unknown node {node_id!r}")
        busy = self._busy[node_id].length_within(window)
        return window.length - busy

    def total_slack(self, node_id: str) -> int:
        """Free time of ``node_id`` over the whole horizon."""
        return self.horizon - self._busy[node_id].total_length

    def utilization(self, node_id: str) -> float:
        """Fraction of the horizon ``node_id`` is busy."""
        return self._busy[node_id].total_length / self.horizon

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def copy(self) -> "SystemSchedule":
        """A deep, independent copy (entries are immutable records)."""
        out = SystemSchedule(self.architecture, self.horizon)
        out._busy = {k: v.copy() for k, v in self._busy.items()}
        out._entries = {k: list(v) for k, v in self._entries.items()}
        out._by_process = dict(self._by_process)
        out.bus = self.bus.copy()
        return out

    def validate(self) -> None:
        """Re-check structural invariants (no overlap, inside horizon).

        The mutation API maintains these; ``validate`` exists as a
        defensive cross-check for tests and after deserialization.
        """
        for node_id, entries in self._entries.items():
            ordered = sorted(entries, key=lambda e: e.start)
            for i, entry in enumerate(ordered):
                if entry.start < 0 or entry.end > self.horizon:
                    raise SchedulingError(
                        f"entry {entry} leaves horizon [0, {self.horizon})"
                    )
                if i > 0 and ordered[i - 1].end > entry.start:
                    raise SchedulingError(
                        f"entries {ordered[i - 1]} and {entry} overlap on "
                        f"node {node_id!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = sum(len(v) for v in self._entries.values())
        return (
            f"SystemSchedule(horizon={self.horizon}, processes={n}, "
            f"bus={self.bus!r})"
        )
