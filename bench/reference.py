"""The host's speed, measured while the program runs.

The benchmark runs on a share of a machine whose speed drifts with other
tenants' load: a pure-Python loop runs up to ~1.8x slower, in stretches
of a second to tens of seconds, invisibly to the guest (no steal time;
CPU time equals wall time).  Best or median times over a run do not
remove a slow stretch that covers an operation or the whole run.

So while the run is timed, a SIGALRM timer interrupts the program every
``INTERVAL_S`` and times one call of a fixed pure-Python kernel.  The
kernel does the kinds of work ``upg`` does (breadth-first search over
dict-of-set adjacency, a quadratic modular scan) and uses nothing from
``upg``, so a change to the program does not change it.  An interval of
the run is then converted to the time it would have taken at the speed
at which the kernel takes ``REFERENCE_S``: its length, less the kernel
calls inside it, times the mean of ``REFERENCE_S / t`` over the kernel
times ``t`` sampled within ``WINDOW_S`` of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager

# best time of reference_kernel on the host the benchmark was defined on
# (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11.7)
REFERENCE_S = 0.00080
INTERVAL_S = 0.025
WINDOW_S = 0.25


def reference_kernel() -> int:
    n = 80
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        for w in ((v * 7 + 1) % n, (v * 13 + 5) % n, (v + 1) % n):
            if w != v:
                adj[v].add(w)
                adj[w].add(v)
    total = 0
    for source in range(0, n, 4):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        reached.append(w)
            frontier = reached
        total += max(dist.values())
    m = 40
    inverses = [y for x in range(1, m) for y in range(1, m) if x * y % m == 1]
    return total + len(inverses)


class SpeedProbe:
    """Kernel times sampled on a timer; a context manager that arms it."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextmanager
    def paused(self):
        """No samples while a child process runs: the two would contend."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        # the collector is off, so the program's live objects cannot slow
        # the kernel
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.times.append(elapsed)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        return self.times[lo : bisect.bisect_left(self.starts, end, lo)]

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference-speed time over [start, end]:
        the samples within WINDOW_S of it, else the nearest one."""
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if not near:
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = self.times[i : i + 1]
        return sum(REFERENCE_S / t for t in near) / len(near)

    def at_reference(self, start: float, end: float) -> float:
        """The interval's program time at the reference speed."""
        work = end - start - sum(self._between(start, end))
        return work * self.scale(start, end)
