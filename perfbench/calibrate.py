"""Calibrated timing: wall time rescaled by the machine's current speed.

On a machine shared with other tenants the same pure-Python work runs up
to 1.8 times slower while a neighbour loads the core, in spells that last
from a fraction of a second to minutes, so raw wall times differ from one
run to the next by more than any bound worth enforcing.  While a Clock is
open, a timer signal interrupts the process every ``INTERVAL_S`` seconds
and times a fixed kernel.  ``Clock.seconds(a, b)`` then integrates over
the wall interval [a, b]: each stretch between two kernel samples counts
``REFERENCE_S / kernel time`` seconds per wall second, and the time spent
in the kernel itself counts nothing.  The result is in seconds at the
speed at which the kernel takes ``REFERENCE_S``.

The kernel does work shaped like the package's (integer predicates on
frozen dataclass points, small frozensets) but shares no code with the
package.  It runs with the garbage collector off, so a collection whose
cost grows with the package's live heap never lands in a kernel sample.
A change to the package can still move the yardstick through the machine
state it leaves behind (caches, memory bandwidth); a change that burns
time outside the measured calls, in a thread for example, would slow the
kernel too and would not show.

The clock tracks a slower core, not a shared one: a process that waits
for a core between two samples takes its next sample right after it gets
the core back, at full speed, and so counts the wait as work.  Processes
that are timed must therefore not run side by side.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from dataclasses import dataclass
from itertools import combinations

#: Fastest time of kernel_s() seen on the 2-core x86-64 development box
#: with CPython 3.11; it only sets the unit, so any fixed value would do.
REFERENCE_S = 0.00179

#: Seconds between kernel samples.
INTERVAL_S = 0.05

_rng = random.Random(20120315)
_COORDS = tuple((_rng.randint(-10**6, 10**6), _rng.randint(-10**6, 10**6)) for _ in range(96))


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


_POINTS = tuple(_Point(x, y) for x, y in _COORDS[:10])


def _orient(a: _Point, b: _Point, c: _Point) -> int:
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return 1 if det > 0 else -1 if det < 0 else 0


def _inside(p: _Point, a: _Point, b: _Point, c: _Point) -> bool:
    if _orient(a, b, c) < 0:
        b, c = c, b
    return _orient(a, b, p) > 0 and _orient(b, c, p) > 0 and _orient(c, a, p) > 0


def kernel_s() -> float:
    """Wall time of one fixed batch of work shaped like the package's.

    Tight integer arithmetic alone under-corrects for the package's object
    and allocation heavy code, and object code alone over-corrects; the two
    halves together tracked builds of every workload within 3 % between the
    fast and slow thirds of a run.
    """
    start = time.perf_counter()
    coords = _COORDS
    n = len(coords)
    turns = 0
    for i in range(n):
        ax, ay = coords[i]
        for j in range(i + 1, n):
            bx, by = coords[j]
            cx, cy = coords[(i + 2 * j) % n]
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            turns += 1 if det > 0 else -1 if det < 0 else 0
    pts = _POINTS
    m = len(pts)
    empty = [
        frozenset((i, j, k))
        for i, j, k in combinations(range(m), 3)
        if not any(_inside(pts[t], pts[i], pts[j], pts[k]) for t in range(m) if t not in (i, j, k))
    ]
    {frozenset(e) for tri in empty for e in combinations(sorted(tri), 2)}
    return time.perf_counter() - start


class Clock:
    """Samples machine speed while open; converts wall intervals afterwards."""

    def __init__(self) -> None:
        # (start, end) of each kernel run, in perf_counter seconds.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel_s()
            self._starts.append(start)
            self._ends.append(time.perf_counter())
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # The first kernel run of a process is slow (cold code and caches);
        # a warm-up run keeps it out of the first sample.
        kernel_s()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b] inside the open period."""
        starts, ends = self._starts, self._ends
        if not starts or a < ends[0] or b > starts[-1]:
            raise ValueError("interval not covered by speed samples")
        total = 0.0
        # Gap i runs from the end of sample i to the start of sample i + 1.
        i = bisect.bisect_right(ends, a) - 1
        while i + 1 < len(starts) and ends[i] < b:
            lo, hi = max(a, ends[i]), min(b, starts[i + 1])
            if hi > lo:
                kernel = (ends[i] - starts[i] + ends[i + 1] - starts[i + 1]) / 2
                total += (hi - lo) * REFERENCE_S / kernel
            i += 1
        return total
