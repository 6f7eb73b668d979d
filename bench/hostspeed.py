"""Host-speed calibration for timings on a shared machine.

On a shared host the speed of one vCPU drifts by up to about 1.8x in phases
of seconds to minutes, as other tenants come and go. Such a drift slows a
fixed piece of Python code as much as it slows the program, so the benchmark
runs a fixed reference kernel at least every INTERVAL_S between calls, and
scales each timed call by REFERENCE_S over the median kernel time around
it. A timing is then what the call would take on a host whereon the kernel
takes REFERENCE_S: the drift cancels, and a change in the program's own cost
does not. In six 38-second runs per workload on a 2-vCPU Xeon VM, throughput
from raw per-instance medians spread 0.19 to 0.25 (interquartile range over
median) across seeds, and from the same calls scaled 0.016 to 0.024.
"""

from __future__ import annotations

import bisect
import statistics
import time

# About the best time of `kernel` (0.64 to 0.68 ms) on an unloaded core of
# the 2-vCPU Xeon VM the benchmark was tuned on, under Python 3.11. Scaled
# timings are in these terms.
REFERENCE_S = 0.0007
INTERVAL_S = 0.05
# Kernel samples taken on each side of a call beyond those inside it.
NEIGHBOURS = 2
WINDOW_S = 0.3


def kernel() -> int:
    """Fixed pure-Python work in the program's idiom: adjacency sets, set
    intersection, tuples and a dict of counts, on a fixed 22-vertex graph."""
    n = 22
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u * 7 + v * 13) % 5 != 0:
                adj[u].add(v)
                adj[v].add(u)
    sides: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in sorted(w for w in adj[a] if w > a):
            for c in adj[a] & adj[b]:
                if c > b:
                    for e in ((a, b), (b, c), (a, c)):
                        sides[e] = sides.get(e, 0) + 1
    return len(sides)


class HostSpeed:
    """Kernel timings over one run, and the scale factor they give each call."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = float("-inf")

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def sample(self) -> None:
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(t0 - self.origin)
            self.took.append(t1 - t0)
        self.last = self.now()

    def tick(self) -> None:
        """Sample the kernel if INTERVAL_S has passed since the last sample."""
        if self.now() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time from just before start to
        just after end (run times from `now`); call after a final `sample`."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[max(0, lo - NEIGHBOURS) : hi + NEIGHBOURS])
