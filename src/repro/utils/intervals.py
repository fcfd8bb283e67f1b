"""Half-open integer intervals and interval-set arithmetic.

Time in this library is discrete (integer "time units").  A processor's
busy time, the gaps (slack) between reservations, and T_min windows are
all represented as half-open intervals ``[start, end)``.

:class:`IntervalSet` maintains a sorted list of pairwise-disjoint,
non-adjacent intervals and supports the operations the scheduler and
the design metrics need:

* inserting busy time (with overlap detection),
* computing the complement (slack) within a horizon,
* intersecting with a window (for the second design criterion),
* measuring total length.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[start, end)``.

    Attributes
    ----------
    start:
        Inclusive lower bound.
    end:
        Exclusive upper bound.  Must satisfy ``end >= start``; an
        interval with ``end == start`` is empty.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end ({self.end}) must be >= start ({self.start})"
            )

    @property
    def length(self) -> int:
        """Number of time units covered by the interval."""
        return self.end - self.start

    @property
    def empty(self) -> bool:
        """True when the interval covers no time units."""
        return self.end == self.start

    def contains(self, t: int) -> bool:
        """Whether time point ``t`` lies inside ``[start, end)``."""
        return self.start <= t < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two half-open intervals share any time unit."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection with ``other``."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi < lo:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def shift(self, delta: int) -> "Interval":
        """A copy of the interval translated by ``delta`` time units."""
        return Interval(self.start + delta, self.end + delta)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"


class IntervalSet:
    """A set of pairwise-disjoint half-open intervals, kept sorted.

    Adjacent intervals (``a.end == b.start``) are merged on insertion
    so the set is always in canonical form.  The class is the common
    representation for *busy time* on a resource and -- through
    :meth:`complement` -- for the *slack* the design metrics consume.
    """

    def __init__(self, intervals: Optional[Iterable[Interval]] = None) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        if intervals is not None:
            for iv in intervals:
                self.add(iv)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        for s, e in zip(self._starts, self._ends):
            yield Interval(s, e)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(str(iv) for iv in self)
        return f"IntervalSet({body})"

    def copy(self) -> "IntervalSet":
        """An independent copy of the set."""
        out = IntervalSet()
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        return out

    def intervals(self) -> List[Interval]:
        """The canonical sorted list of disjoint intervals."""
        return list(self)

    def as_pairs(self) -> List[Tuple[int, int]]:
        """The intervals as plain ``(start, end)`` tuples.

        The allocation-free view for hot paths (metric extraction)
        that would otherwise build one :class:`Interval` object per
        busy run per evaluation.
        """
        return list(zip(self._starts, self._ends))

    @property
    def total_length(self) -> int:
        """Sum of the lengths of all intervals in the set."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, interval: Interval) -> None:
        """Insert ``interval``, merging with overlapping/adjacent ones."""
        if interval.empty:
            return
        start, end = interval.start, interval.end
        # Find the window of existing intervals that touch [start, end].
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]

    def add_busy(self, interval: Interval) -> None:
        """Insert ``interval`` asserting it does not overlap existing time.

        This is the scheduler's insertion primitive: reservations must
        never collide.  Adjacency is allowed (back-to-back execution).

        Raises
        ------
        ValueError
            If the new interval overlaps an interval already in the set.
        """
        if interval.empty:
            self.add(interval)
            return
        if self.overlaps(interval):
            raise ValueError(f"interval {interval} overlaps existing busy time")
        self.add(interval)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def overlaps(self, interval: Interval) -> bool:
        """Whether ``interval`` shares any time unit with the set."""
        if interval.empty:
            return False
        idx = bisect.bisect_right(self._starts, interval.start) - 1
        if idx >= 0 and self._ends[idx] > interval.start:
            return True
        idx += 1
        return idx < len(self._starts) and self._starts[idx] < interval.end

    def contains_point(self, t: int) -> bool:
        """Whether time point ``t`` is covered by the set."""
        idx = bisect.bisect_right(self._starts, t) - 1
        return idx >= 0 and t < self._ends[idx]

    def complement(self, horizon: Interval) -> "IntervalSet":
        """The gaps of the set inside ``horizon`` -- i.e. the *slack*.

        Parameters
        ----------
        horizon:
            The window within which gaps are reported, typically
            ``[0, hyperperiod)``.
        """
        out = IntervalSet()
        cursor = horizon.start
        for s, e in zip(self._starts, self._ends):
            if e <= horizon.start:
                continue
            if s >= horizon.end:
                break
            if s > cursor:
                out.add(Interval(cursor, min(s, horizon.end)))
            cursor = max(cursor, e)
        if cursor < horizon.end:
            out.add(Interval(cursor, horizon.end))
        return out

    def clipped(self, window: Interval) -> "IntervalSet":
        """The intersection of the set with ``window``."""
        out = IntervalSet()
        for s, e in zip(self._starts, self._ends):
            lo = max(s, window.start)
            hi = min(e, window.end)
            if hi > lo:
                out.add(Interval(lo, hi))
        return out

    def length_within(self, window: Interval) -> int:
        """Total covered time inside ``window``."""
        total = 0
        for s, e in zip(self._starts, self._ends):
            lo = max(s, window.start)
            hi = min(e, window.end)
            if hi > lo:
                total += hi - lo
        return total

    def earliest_fit(self, duration: int, not_before: int = 0) -> Optional[int]:
        """Earliest start >= ``not_before`` of a free gap of ``duration``.

        The set is interpreted as *busy* time; a fit is a stretch of
        ``duration`` time units not covered by any interval.  Returns
        ``None`` never -- after the last busy interval there is always
        room -- unless ``duration`` is negative, which raises.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        cursor = not_before
        idx = bisect.bisect_right(self._starts, cursor) - 1
        if idx >= 0 and self._ends[idx] > cursor:
            cursor = self._ends[idx]
        idx += 1
        while idx < len(self._starts):
            if self._starts[idx] - cursor >= duration:
                return cursor
            cursor = max(cursor, self._ends[idx])
            idx += 1
        return cursor

    def gaps_as_tuples(self, horizon: Interval) -> List[Tuple[int, int]]:
        """Convenience: slack gaps inside ``horizon`` as (start, end) pairs."""
        return [(iv.start, iv.end) for iv in self.complement(horizon)]
