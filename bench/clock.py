"""Host time rescaled to the speed the host ran at while it was spent.

The box the benchmark was built on shares its cores with other tenants:
a fixed pure-Python loop there runs up to twice as slow for spells of
seconds to minutes, and one spell can cover a whole run. Wall time alone
then spreads by 10-25 % across runs of the same code.

:class:`HostClock` times a short fixed reference loop every ``PERIOD_S``
(from a ``SIGALRM`` interval timer) and at every :meth:`HostClock.mark`.
:meth:`HostClock.seconds` rescales each stretch between two samples by
``REF_S`` over the time the samples around it took, so a stretch spent
at half speed counts half, and leaves out the time spent in the samples.
Code under test is slowed by the same spells as the loop, so its
rescaled time holds still while its wall time swings.

Pure Python on purpose: the clock also times ``import repro`` (and with
it NumPy), so nothing here may import NumPy first.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

__all__ = ["HostClock", "REF_S", "PERIOD_S"]

#: Iterations of the reference loop.
REF_ITERATIONS = 1200
#: Seconds the reference loop takes on an idle core of the 2-CPU Xeon
#: (2.1 GHz, Python 3.11) the benchmark was built on: the speed that
#: rescaled time is expressed in.
REF_S = 0.0013
#: Seconds between timer samples; each costs 2-3 % of that.
PERIOD_S = 0.05
#: Samples, either side of a stretch, whose median rescales it: one
#: sample is too short to be steady on its own.
WINDOW = 2

_KEYS = [f"k{i}" for i in range(256)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def weigh(self, k):
        return self.x * k + self.y


def _reference() -> None:
    # A fixed mix of what the program's own Python does: objects, method
    # calls, dict lookups, list and heap operations. On the build box it
    # tracked every workload's slowdown at least about as well as a plain
    # arithmetic loop, and the serving workloads' far better: the spells
    # slow such code more than they slow arithmetic.
    window, heap, total = [], [], 0
    for i in range(REF_ITERATIONS):
        total += _Point(i, i + 1).weigh(3) + _TABLE[_KEYS[(i * 37) & 255]]
        window.append((total, i))
        if len(window) > 64:
            window.pop(0)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)


class HostClock:
    """Samples the host's speed while in its ``with`` block.

    Use from the main thread only (signal handlers run there). Read
    :meth:`seconds` after the block, so every stretch has a sample on
    both sides.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def mark(self) -> None:
        """Take a sample now: call it next to the bounds of a stretch."""
        if self._busy:  # the timer fired inside an explicit mark
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _reference()
            self.samples.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.mark()

    def seconds(self, start: float, end: float) -> float:
        """Rescaled seconds in ``[start, end]`` (``perf_counter`` times),
        sample time excluded."""
        samples = self.samples
        if not samples:
            raise RuntimeError("HostClock.seconds before any sample")
        durations = [e - s for s, e in samples]
        total = 0.0
        # Stretch k runs from the end of sample k-1 to the start of
        # sample k; the first and last are open-ended.
        for k in range(len(samples) + 1):
            lo = samples[k - 1][1] if k > 0 else float("-inf")
            hi = samples[k][0] if k < len(samples) else float("inf")
            overlap = min(hi, end) - max(lo, start)
            if overlap <= 0.0:
                continue
            near = durations[max(0, k - WINDOW):k + WINDOW]
            total += overlap * REF_S / statistics.median(near)
        return total
