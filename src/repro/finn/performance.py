"""Latency/throughput model of a compiled dataflow accelerator.

Serving model (documented in DESIGN.md):

* **Latency** to exit *k* is the sum of stage busy-cycles along the path
  to that exit (streaming pipeline fill time).
* **Capacity** follows a pipeline-with-gating queueing model. The branch
  module's FIFO holds the trunk copy of each frame until the host accepts
  or rejects the early exit; on accept the copy is dropped, so stages
  behind a branch are only *visited* by frames that did not exit earlier.
  A stage ``s`` with busy-cycles ``c_s`` visited by a fraction ``v_s`` of
  frames sustains an arrival rate of ``clock / (c_s * v_s)``; the
  accelerator's capacity is the minimum over stages. With a single exit
  this degenerates to FINN's classic ``clock / max_stage_cycles``.

This is how early exit buys throughput and energy on an otherwise
hard-wired dataflow design, and the mechanism behind the paper's CT-Only
and AdaPEx capacity gains.

Zero-skip sparsity composes transparently: when the accelerator was
compiled with ``zero_skip=True`` each MVTU's ``cycles()`` already
reflects its weight density (:func:`repro.finn.hls.zero_skip_factor`),
so :class:`StageLoad.effective_cycles`, ``exit_cycles``,
``capacity_ips`` and everything downstream in the serving stack pick up
the sparsity speedup without further changes here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compile import DataflowAccelerator

__all__ = ["StageLoad", "PerformanceModel"]


@dataclass(frozen=True)
class StageLoad:
    """Visit statistics of one pipeline stage."""

    name: str
    cycles: int
    visit_fraction: float

    @property
    def effective_cycles(self) -> float:
        return self.cycles * self.visit_fraction


class PerformanceModel:
    """Latency/throughput queries for one accelerator."""

    def __init__(self, accel: DataflowAccelerator):
        self.accel = accel
        self._paths = [set(p) for p in accel.exit_paths]

    # ------------------------------------------------------------------
    # exit-path structure
    # ------------------------------------------------------------------
    @property
    def num_exits(self) -> int:
        return self.accel.num_exits

    def exit_latency_s(self, exit_idx: int) -> float:
        return self.accel.exit_latency_s(exit_idx)

    def latencies_s(self) -> list[float]:
        return [self.exit_latency_s(k) for k in range(self.num_exits)]

    def _rates(self, exit_rates) -> np.ndarray:
        rates = np.asarray(exit_rates, dtype=np.float64)
        if rates.shape != (self.num_exits,):
            raise ValueError(
                f"need {self.num_exits} exit rates, got {rates.shape}")
        if rates.min() < -1e-9 or not np.isclose(rates.sum(), 1.0, atol=1e-6):
            raise ValueError("exit rates must form a probability vector")
        return np.clip(rates, 0.0, 1.0)

    def stage_visit_fractions(self, exit_rates) -> dict[int, float]:
        """Fraction of frames visiting each module index.

        Stages new to exit k's path (not on any earlier exit's path) are
        visited only by frames that survived all earlier exits.
        """
        return self._visit_fractions(self._rates(exit_rates))

    def _visit_fractions(self, rates: np.ndarray) -> dict[int, float]:
        fractions: dict[int, float] = {}
        seen: set[int] = set()
        survival = 1.0
        for k in range(self.num_exits):
            new_stages = self._paths[k] - seen
            for idx in new_stages:
                fractions[idx] = survival
            seen |= self._paths[k]
            survival -= rates[k]
            survival = max(survival, 0.0)
        return fractions

    def stage_loads(self, exit_rates) -> list[StageLoad]:
        fractions = self.stage_visit_fractions(exit_rates)
        return [
            StageLoad(self.accel.modules[i].name,
                      self.accel.stage_cycles[i], frac)
            for i, frac in sorted(fractions.items())
        ]

    # ------------------------------------------------------------------
    # headline quantities
    # ------------------------------------------------------------------
    def average_latency_s(self, exit_rates) -> float:
        return self._average_latency(self._rates(exit_rates))

    def _average_latency(self, rates: np.ndarray) -> float:
        return float(sum(r * self.exit_latency_s(k)
                         for k, r in enumerate(rates)))

    def capacity_ips(self, exit_rates) -> float:
        """Sustainable inference rate under the gated-pipeline model."""
        return self._capacity(self.stage_visit_fractions(exit_rates))

    def _capacity(self, fractions: dict) -> float:
        cycles = self.accel.stage_cycles
        busiest = max((cycles[i] * frac for i, frac in fractions.items()),
                      default=1.0)
        if busiest <= 0:
            return float("inf")
        return self.accel.clock_hz / busiest

    def serving_capacity_ips(self, exit_rates, inflight: int = 1) -> float:
        """Capacity under the paper's request-response host loop.

        The FINN host code sends an input and collects the result before
        issuing the next (``inflight`` buffered frames at most), so serving
        is latency-bound: ``inflight / average_latency``, additionally
        capped by the physical pipeline capacity. This is the figure the
        Runtime Manager compares against the incoming workload.
        """
        if inflight < 1:
            raise ValueError("inflight must be >= 1")
        rates = self._rates(exit_rates)
        return self._serving(self._average_latency(rates),
                             self._capacity(self._visit_fractions(rates)),
                             inflight)

    @staticmethod
    def _serving(avg_lat: float, capacity: float, inflight: int) -> float:
        latency_bound = inflight / avg_lat if avg_lat > 0 else float("inf")
        return min(latency_bound, capacity)

    def utilization(self, exit_rates, arrival_ips: float) -> float:
        """Busy fraction of the bottleneck stage at a given arrival rate."""
        cap = self.capacity_ips(exit_rates)
        return min(arrival_ips / cap, 1.0) if cap > 0 else 1.0
