"""Wall time scaled to a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts
by a third within minutes: a fixed SA design request took 0.39 s, then
0.25 s, 100 s later, with CPU time drifting alike.  No median over
passes inside one run removes drift that slow.  So every timed request
is bracketed by a short, fixed probe (:class:`Probe`), and
its wall time is scaled by ``PROBE_REFERENCE_S / probe``: the time the
request would have taken with the machine at the reference speed.

The probe is the benchmark's own code, so a change to the program moves
the scaled time exactly as it moves the raw one.  Raw wall time is
reported next to every scaled figure.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Probe time of the reference machine (an Intel Xeon at 2.1 GHz, 2
#: cores, Python 3.11, numpy 2.4): a scaled second is a wall second there.
PROBE_REFERENCE_S = 0.0055


class Probe:
    """A fixed slice of work like the program's: interpreter and numpy.

    The probe time is the geometric mean of two timed parts: a Python
    loop over ints, strings and a small dict, and sorts and sums over a
    1.6 MB numpy array.  The program mixes both kinds of work, and the
    machine's speed does not move them alike.  Between a slow and a fast
    hour of the same machine, design requests ran 1.82x faster, the loop
    2.12x and the numpy part 1.66x; the ratio of request time to the
    geometric mean moved by 0.5%, to the numpy part alone by 9%.  Within
    one hour, 20-second medians of scaled time spread 2% to 6%, against
    11% to 13% unscaled.  Neither part writes to the objects it reads, so
    the copy-on-write faults that follow a fork do not slow it down.
    """

    def __init__(self) -> None:
        import numpy

        self.array = numpy.random.default_rng(1).random(200_000)

    def __call__(self) -> float:
        """Seconds the slice takes right now (geometric mean of its parts)."""
        import numpy

        start = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(30_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            acc += len(str(i))
        middle = time.perf_counter()
        for _ in range(20):
            numpy.sort(self.array[:20_000])
            self.array.sum()
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))


class ScaledClock:
    """Times calls in raw and reference-speed seconds.

    Consecutive calls share the probe between them, so each call is
    bracketed by one probe before and one after it.
    """

    def __init__(self, probe: Optional[Callable[[], float]] = None):
        self._probe = probe or Probe()
        self._last: Optional[float] = None

    def time(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """``(result, raw_s, scaled_s)`` of ``call()``; exceptions propagate."""
        before = self._last if self._last is not None else self._probe()
        self._last = None
        start = time.perf_counter()
        try:
            result = call()
        finally:
            raw = time.perf_counter() - start
            self._last = self._probe()
        speed = (before + self._last) / 2
        return result, raw, raw * PROBE_REFERENCE_S / speed
