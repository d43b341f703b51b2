"""Host-speed clock: host seconds corrected for other tenants' load.

A shared host runs slower while other tenants are busy, by up to 2x,
in bursts that range from a fraction of a second to longer than a
whole run. A fixed pure-Python loop slows down with the programs: in
runs of the 8 programs on the bare engine, their times divided by the
loop's stayed within about 5% through 2x bursts.

``HostClock`` times the loop every ``INTERVAL_S`` from a ``SIGALRM``
handler while the benchmark runs. ``normalize`` turns the host seconds
of an interval into *reference seconds*: it takes out the time the
handler itself spent, then divides by the loop's mean slowdown over the
interval against ``REFERENCE_LOOP_S``. A reference second is a second
on a host where the loop takes ``REFERENCE_LOOP_S``.

Only samples taken while this process was busy on its own count
towards the slowdown. While a process pool runs (a second thread
manages it), the loop competes with the workers for the two CPUs, or
runs just woken on a CPU they had, and reads up to 2x slow on a calm
host. An interval with fewer than one counted sample per two sampling
intervals takes the ``NEAREST`` counted samples on each side of it as
well. Interval timers are not inherited across ``fork``, so pool workers
are never sampled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import threading
import time
from typing import List, Optional

#: Seconds between two samples.
INTERVAL_S = 0.1

#: Iterations of the reference loop in one sample (about 2 ms).
LOOP_ITERATIONS = 15000

#: The loop's time on an idle 2-vCPU "Intel Xeon Processor" VM, Python 3.11.
REFERENCE_LOOP_S = 0.0019

#: A sample counts when the process ran for this share of the time since
#: the previous one, with no second thread.
BUSY_SHARE = 0.5

#: Counted samples taken on each side of a sparsely sampled interval.
NEAREST = 10


def reference_loop() -> int:
    regs = [0] * 32
    table = {}
    for i in range(LOOP_ITERATIONS):
        value = regs[(i * 7) & 31]
        regs[i & 31] = (value + i) & 0xFFFFFFFF
        table[i & 255] = value
    return len(table)


class HostClock:
    """Samples the reference loop while it is entered (a context manager)."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.loop_seconds: List[float] = []
        self.busy_starts: List[float] = []
        self.busy_loop_seconds: List[float] = []
        self._previous = None
        self._last_wall = time.perf_counter()
        self._last_cpu = time.process_time()

    def _sample(self, signum: Optional[int] = None, frame=None) -> None:
        started = time.perf_counter()
        busy = time.process_time() - self._last_cpu >= BUSY_SHARE * (started - self._last_wall)
        # The first sample, taken on entry, always counts.
        busy = signum is None or busy and threading.active_count() == 1
        reference_loop()
        self._last_wall = ended = time.perf_counter()
        self._last_cpu = time.process_time()
        self.starts.append(started)
        self.loop_seconds.append(ended - started)
        if busy:
            self.busy_starts.append(started)
            self.busy_loop_seconds.append(ended - started)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``.

        The slowdown is the mean over the counted samples that start
        within one sampling interval of ``[start, end]``, so a short
        interval gets its neighbours' samples.
        """
        own = sum(
            self.loop_seconds[
                bisect.bisect_left(self.starts, start) : bisect.bisect_right(self.starts, end)
            ]
        )
        first = bisect.bisect_left(self.busy_starts, start - INTERVAL_S)
        last = bisect.bisect_right(self.busy_starts, end + INTERVAL_S)
        if last - first < (end - start) / (2 * INTERVAL_S):
            first = max(bisect.bisect_left(self.busy_starts, start) - NEAREST, 0)
            last = bisect.bisect_right(self.busy_starts, end) + NEAREST
        slowdown = statistics.fmean(self.busy_loop_seconds[first:last]) / REFERENCE_LOOP_S
        return (end - start - own) / slowdown


class NullClock:
    """Plain host seconds, for runs whose times are not checked."""

    def __enter__(self) -> "NullClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def normalize(self, start: float, end: float) -> float:
        return end - start
