"""Scoped-timer instrumentation for the expensive phases.

A :class:`PhaseTimer` accumulates wall time per named phase (``train``,
``prune``, ``retrain``, ``compile``, ``characterize``, ``simulate``, ...)
across the design-time flow and the edge evaluation. Timers are cheap,
mergeable (worker processes time their own work and ship the totals back
to the parent), and serialize to the ``BENCH_*.json`` reports written
next to benchmark output so the performance trajectory is trackable
across PRs.

Phases nest: time recorded while another phase of the same timer is
open (``characterize`` contains ``engine_forward``, which contains every
``engine_step/<name>``) is listed under its own name but not added to
the total, which is the sum of the outermost phases. A phase's nested
share travels through :meth:`PhaseTimer.as_dict` as ``nested_s``, so the
total stays right after :meth:`PhaseTimer.merge`.

Usage::

    timer = PhaseTimer()
    with timer.phase("train"):
        trainer.fit(...)
    print(timer.summary())
    timer.write_json("BENCH_generate.json", extra={"dataset": "cifar10"})
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from contextlib import contextmanager

__all__ = ["PhaseTimer", "peak_rss_mb"]


def peak_rss_mb(workers: int = 1) -> float:
    """Peak resident set size in MiB: this process's ``ru_maxrss``, plus
    the largest finished child's when ``workers > 1`` (the forked pool
    workers; a lone worker's peak is not counted)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class PhaseTimer:
    """Accumulates wall-clock seconds and call counts per phase."""

    def __init__(self):
        self._lock = threading.Lock()
        # name -> [seconds, count, nested seconds]
        self._phases: dict[str, list] = {}
        self._open = threading.local()  # .depth: phases open per thread

    def _depth(self) -> int:
        return getattr(self._open, "depth", 0)

    @contextmanager
    def phase(self, name: str):
        """Time one scoped block under ``name`` (re-entrant per name)."""
        start = time.perf_counter()
        self._open.depth = self._depth() + 1
        try:
            yield self
        finally:
            self._open.depth -= 1
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record ``seconds`` of wall time (``count`` invocations); nested
        if a phase of this timer is open in the calling thread."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self._record(name, seconds, count,
                     seconds if self._depth() else 0.0)

    def _record(self, name: str, seconds: float, count: int,
                nested: float) -> None:
        with self._lock:
            bucket = self._phases.setdefault(name, [0.0, 0, 0.0])
            bucket[0] += seconds
            bucket[1] += count
            bucket[2] += nested

    def merge(self, other, prefix: str = "") -> "PhaseTimer":
        """Fold another timer (or its ``as_dict()`` form) into this one.

        ``prefix`` namespaces the incoming phases (e.g. ``"engine_"``)
        so kernel-level timings can be told apart from orchestration
        phases in the merged report. Incoming nested time stays nested;
        merged while a phase of this timer is open, all of it is.
        """
        phases = other.get("phases", other) if isinstance(other, dict) \
            else other.as_dict()["phases"]
        inside = self._depth() > 0
        for name, rec in phases.items():
            seconds = rec["seconds"]
            self._record(prefix + name, seconds, rec.get("count", 1),
                         seconds if inside else rec.get("nested_s", 0.0))
        return self

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        with self._lock:
            return self._phases.get(name, [0.0, 0])[0]

    def count(self, name: str) -> int:
        with self._lock:
            return self._phases.get(name, [0.0, 0])[1]

    def total_seconds(self) -> float:
        """Wall time of the outermost phases (nested time excluded)."""
        with self._lock:
            return sum(rec[0] - rec[2] for rec in self._phases.values())

    def as_dict(self) -> dict:
        with self._lock:
            phases = {name: {"seconds": rec[0], "count": rec[1],
                             **({"nested_s": rec[2]} if rec[2] else {})}
                      for name, rec in sorted(self._phases.items())}
        return {"phases": phases,
                "total_s": sum(p["seconds"] - p.get("nested_s", 0.0)
                               for p in phases.values())}

    def summary(self, title: str = "phase timings") -> str:
        """Human-readable per-phase table (sorted by time, descending)."""
        data = self.as_dict()
        lines = [f"{title} (total {data['total_s']:.2f} s):"]
        ordered = sorted(data["phases"].items(),
                         key=lambda kv: -kv[1]["seconds"])
        for name, rec in ordered:
            lines.append(f"  {name:<14} {rec['seconds']:>9.3f} s  "
                         f"x{rec['count']}")
        if not ordered:
            lines.append("  (no phases recorded)")
        return "\n".join(lines)

    def write_json(self, path, extra: dict | None = None) -> dict:
        """Write the timing report as JSON (creating parent directories
        as needed); returns the written payload."""
        payload = dict(extra or {})
        payload.update(self.as_dict())
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        return payload
