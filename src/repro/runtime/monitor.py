"""Workload monitoring.

The paper adds "performance monitors to the software in charge of the
incoming inferences" that flag workload changes. The monitor keeps a
sliding window of arrival timestamps, reports the sampled incoming IPS,
and raises a change flag when the rate moves by more than a configurable
relative threshold since the last acknowledged level.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

__all__ = ["WorkloadMonitor"]


class WorkloadMonitor:
    """Sliding-window arrival-rate estimator with change detection."""

    def __init__(self, window_s: float = 1.0, change_threshold: float = 0.10):
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError(
                f"window_s must be finite and positive, got {window_s!r}")
        if change_threshold < 0:
            raise ValueError("change_threshold must be >= 0")
        self.window_s = window_s
        self.change_threshold = change_threshold
        self._arrivals: deque = deque()
        self._acknowledged_ips: float | None = None

    def record_arrival(self, t: float) -> None:
        """Register one inference request at time ``t`` (seconds)."""
        if not math.isfinite(t):
            raise ValueError(f"arrival time must be finite, got {t!r}")
        if self._arrivals and t < self._arrivals[-1]:
            raise ValueError("arrivals must be recorded in time order")
        self._arrivals.append(t)
        self._trim(t)

    def observe_many(self, times) -> None:
        """Register a batch of arrival timestamps at once.

        Equivalent to calling :meth:`record_arrival` for each element of
        ``times`` (already sorted, not earlier than anything recorded so
        far) but validated and trimmed once per batch — the event loop
        buffers arrivals between decision ticks and flushes them here,
        removing a per-frame method-call hot spot. (The vectorized fast
        path keeps no monitor: it counts the window over the sorted
        arrivals.)
        """
        batch = np.asarray(times, dtype=np.float64)
        if batch.ndim != 1:
            raise ValueError("times must be a 1-D sequence")
        if batch.size == 0:
            return
        if not bool(np.isfinite(batch).all()):
            raise ValueError("arrival times must be finite")
        if batch.size > 1 and bool(np.any(np.diff(batch) < 0)):
            raise ValueError("arrivals must be recorded in time order")
        first = float(batch[0])
        if self._arrivals and first < self._arrivals[-1]:
            raise ValueError("arrivals must be recorded in time order")
        self._arrivals.extend(batch.tolist())
        self._trim(float(batch[-1]))

    def _trim(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._arrivals and self._arrivals[0] <= cutoff:
            self._arrivals.popleft()

    def sampled_ips(self, now: float) -> float:
        """Arrival rate over the trailing window."""
        self._trim(now)
        return len(self._arrivals) / self.window_s

    def change_flagged(self, now: float) -> bool:
        """True when the rate drifted beyond the threshold since the last
        acknowledged sample. Acknowledge with :meth:`acknowledge`."""
        current = self.sampled_ips(now)
        if self._acknowledged_ips is None:
            return True
        base = max(self._acknowledged_ips, 1e-9)
        return abs(current - self._acknowledged_ips) / base \
            > self.change_threshold

    def acknowledge(self, now: float) -> float:
        """Mark the current level as handled; returns that level."""
        self._acknowledged_ips = self.sampled_ips(now)
        return self._acknowledged_ips

    def reset(self) -> None:
        self._arrivals.clear()
        self._acknowledged_ips = None
