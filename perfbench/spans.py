"""Outside-in span recorder: times the program's layers without editing it.

:class:`SpanRecorder` replaces named functions and methods of the program
with thin wrappers for the duration of a ``with recorder.installed(...)``
block and restores the originals afterwards.  Each wrapped call is a
*span*.  Spans nest through an explicit stack, so a layer's *self time*
is its span's duration minus the durations of the spans it caused:
``EvaluationEngine.evaluate_moves`` -> ``DeltaEvaluator.evaluate_move``
-> ``ArraySpec.resume_state`` / ``ArraySpec.run_kernel`` is counted once,
each part under its own name.  A call made from inside a span of the
same name is folded into that span, so a layer entered once counts
once however its functions call each other.

Recording happens only inside an open *phase* (:meth:`SpanRecorder.phase`);
outside one the wrappers pass straight through, so correctness checks
and set-up done between phases cost nothing and land in no total.  A
phase also keeps the time covered by its outermost spans, which makes
"the share of wall time covered by no span" a measured quantity.

The recorder is single-threaded: spans are kept per process, and child
processes forked while a phase is open record into their own copy,
which is discarded.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``observe(recorder, args, kwargs, result)``: counts outcomes of a
#: wrapped call (hits, ``None`` results, batch sizes) into the recorder.
Observer = Callable[["SpanRecorder", tuple, dict, Any], None]


@dataclass
class SpanTotals:
    """Call count, inclusive time and self time of one span name."""

    n: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class PhaseRecord:
    """What the recorder saw during one phase."""

    wall_ns: int = 0
    #: Time covered by outermost spans (never double-counted).
    covered_ns: int = 0
    spans: Dict[str, SpanTotals] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "PhaseRecord") -> None:
        self.wall_ns += other.wall_ns
        self.covered_ns += other.covered_ns
        for name, t in other.spans.items():
            mine = self.spans.setdefault(name, SpanTotals())
            mine.n += t.n
            mine.total_ns += t.total_ns
            mine.self_ns += t.self_ns
        for name, k in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + k


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``owner`` is a class (methods) or a module (functions).  A module
    function is also replaced wherever another loaded module of the
    same package bound it by name, so ``from m import f`` call sites
    are traced too.
    """

    owner: Any
    attr: str
    name: str
    observe: Optional[Observer] = None


class SpanRecorder:
    """Nested wall-clock spans and counters, grouped into phases."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: ``[name, start_ns, child_ns]`` per open span, innermost last.
        self._stack: List[list] = []
        self._phase: Optional[PhaseRecord] = None
        self._phase_start = 0

    # -- phases --------------------------------------------------------
    @contextmanager
    def phase(self) -> Iterator[PhaseRecord]:
        """Record spans until the block ends; yields the phase's record."""
        if self._phase is not None:
            raise RuntimeError("phases do not nest")
        record = PhaseRecord()
        self._phase = record
        self._phase_start = self.clock()
        try:
            yield record
        finally:
            record.wall_ns = self.clock() - self._phase_start
            self._phase = None
            self._stack.clear()

    def count(self, name: str, k: int = 1) -> None:
        """Add ``k`` to counter ``name`` of the open phase (if any)."""
        phase = self._phase
        if phase is not None:
            phase.counts[name] = phase.counts.get(name, 0) + k

    # -- wrapping ------------------------------------------------------
    def wrap(
        self, name: str, fn: Callable[..., Any], observe: Optional[Observer] = None
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` while a phase is open."""
        recorder = self
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            phase = recorder._phase
            if phase is None or (stack and stack[-1][0] == name):
                # Untraced, or a call within the same layer (say
                # map_and_schedule -> try_map_and_schedule): one span.
                return fn(*args, **kwargs)
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                totals = phase.spans.get(name)
                if totals is None:
                    totals = phase.spans[name] = SpanTotals()
                totals.n += 1
                totals.total_ns += duration
                totals.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    phase.covered_ns += duration
            if observe is not None:
                observe(recorder, args, kwargs, result)
            return result

        return span

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["SpanRecorder"]:
        """Wrap every target for the block; always restore the originals."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for target in targets:
                original = _raw_attr(target.owner, target.attr)
                wrapped = self.wrap(target.name, original, target.observe)
                for owner in _binding_sites(target.owner, target.attr, original):
                    saved.append((owner, target.attr, original))
                    setattr(owner, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _raw_attr(owner: Any, attr: str) -> Any:
    """``owner.attr`` without descriptor binding (plain functions only)."""
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
    if raw is None or not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
        raise TypeError(f"cannot wrap {owner!r}.{attr}: not a plain function")
    return raw


def _binding_sites(owner: Any, attr: str, original: Any) -> List[Any]:
    """``owner`` plus every loaded sibling module that bound ``original``."""
    sites = [owner]
    if isinstance(owner, type):
        return sites
    package = owner.__name__.split(".")[0]
    for name, module in list(sys.modules.items()):
        if (
            module is not None
            and module is not owner
            and (name == package or name.startswith(package + "."))
            and getattr(module, attr, None) is original
        ):
            sites.append(module)
    return sites
