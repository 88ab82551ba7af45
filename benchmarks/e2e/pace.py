"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines whose speed changes in phases
that last from seconds to minutes: the same fixed loop can take 1.5x
longer in one minute than in the next.  Every timing the benchmark
gates is therefore scaled by a short, fixed reference burst that is
timed between ops about every :data:`PERIOD_S` seconds::

    scaled time = wall time × NOMINAL_NS / reference time

The reference time of an op is the mean of the two bursts around the
window of ops it ran in.  Slower code makes its ops slower but not the
burst, so a scaled time moves with the code and not with the machine:
it is the op's wall time on a machine where one burst takes exactly
:data:`NOMINAL_NS`.

The burst is interpreted Python of the kinds the library runs:
arithmetic with dict stores, a walk over small objects with attribute
reads, and bisect probes into a sorted list.  It uses nothing from
``repro``, so no change to the library moves it.  Its data (about
0.3 MB) is walked once, untimed, before each timed burst, so the burst
runs from the caches whatever the ops before it evicted: a change to
the library's memory footprint does not move the burst either.  The
burst keeps none of the few objects it allocates, so it never
triggers the cyclic garbage collector, whose cost grows with the
library's heap.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: Seconds of measuring between two reference bursts.
PERIOD_S = 0.2
#: One burst's time on the nominal machine: about its median on a
#: 2-vCPU x86-64 cloud VM running CPython 3.11.
NOMINAL_NS = 4_000_000


class _Node:
    __slots__ = ("tag", "start", "end", "n")

    def __init__(self, tag: str, start: int, end: int, n: int):
        self.tag = tag
        self.start = start
        self.end = end
        self.n = n


def _nodes(count: int = 4000) -> list[_Node]:
    rng = random.Random(0)
    return [_Node(rng.choice(("w", "line", "page", "s")), i,
                  i + rng.randrange(1, 30), rng.randrange(20))
            for i in range(count)]


_NODES = _nodes()
_STARTS = [node.start for node in _NODES]
_TABLE = dict.fromkeys(range(1024), 0)


def _touch() -> int:
    """Read every object the burst reads, to bring it into the caches."""
    acc = sum(_TABLE.values())
    for node in _NODES:
        acc += node.n
    return acc + sum(_STARTS)


def _work() -> int:
    acc = 0
    table = _TABLE
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    for _ in range(3):
        for node in _NODES:
            if node.tag == "w" and node.n == 3:
                acc += node.end - node.start
    starts = _STARTS
    for probe in range(0, len(starts), 2):
        acc += bisect.bisect_left(starts, probe + 1)
    return acc


def burst() -> int:
    """Nanoseconds of one reference burst, its data already cached."""
    _touch()
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start


def steady(count: int = 3) -> float:
    """The median of ``count`` bursts, for timing one long step."""
    return statistics.median(burst() for _ in range(count))


class Scaler:
    """Scales op latencies by the bursts around their window.

    Feed it each op's wall time with :meth:`add`; every
    :data:`PERIOD_S` seconds it closes the window with a burst.  Call
    :meth:`flush` once the ops end.
    """

    def __init__(self) -> None:
        self.bursts: list[int] = [burst()]
        #: Op kind → scaled latencies in ns.
        self.scaled: dict[str, list[float]] = {}
        self._window: list[tuple[str, int]] = []
        self._due = time.perf_counter() + PERIOD_S

    def add(self, kind: str, wall_ns: int) -> None:
        self._window.append((kind, wall_ns))
        if time.perf_counter() >= self._due:
            self.flush()

    def flush(self) -> None:
        if not self._window:
            return
        self.bursts.append(burst())
        factor = 2 * NOMINAL_NS / (self.bursts[-2] + self.bursts[-1])
        for kind, wall_ns in self._window:
            self.scaled.setdefault(kind, []).append(wall_ns * factor)
        self._window.clear()
        self._due = time.perf_counter() + PERIOD_S


def scale(wall: float, before_ns: float, after_ns: float) -> float:
    """``wall`` at nominal speed, given the bursts before and after."""
    return wall * 2 * NOMINAL_NS / (before_ns + after_ns)
