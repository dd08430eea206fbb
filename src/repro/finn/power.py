"""Power and energy model.

Total power splits into a static part (device leakage plus PS/board
overhead; present whenever the bitstream is loaded) and a dynamic part
proportional to the toggling resources of each pipeline stage, scaled by
how often that stage is busy. Coefficients are calibrated so that the
unpruned CNV design lands in the paper's reported band (~1.1-1.4 W on the
ZCU104) and so the structural trends hold: exit circuitry adds ~16-20 %
power, pruning removes dynamic power roughly in proportion to the pruned
resources.

Energy per inference integrates stage energies along the taken exit
paths: a frame that exits early never toggles the gated deep stages, so
lowering the confidence threshold saves energy on easy inputs — the
Figure 1(b)/4 trade-off.

Every query reads the accelerator's per-stage cycles and resources,
which :class:`~repro.finn.compile.DataflowAccelerator` computes once
(a compiled design is never mutated), so characterizing one design at
many confidence thresholds only redoes the per-entry arithmetic: a
sequential sum over the stages in module order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compile import DataflowAccelerator
from .performance import PerformanceModel
from .resources import ResourceEstimate

__all__ = ["PowerModel", "PowerReport"]


@dataclass(frozen=True)
class PowerReport:
    """Power/energy figures for one accelerator at one operating point."""

    static_w: float
    dynamic_w: float
    energy_per_inference_j: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w


@dataclass(frozen=True)
class PowerModel:
    """Resource-proportional power model.

    Coefficients are per-resource dynamic power at 100 MHz and full
    activity; dynamic power scales linearly with clock.
    """

    static_base_w: float = 0.62
    lut_w: float = 4.5e-5
    ff_w: float = 6.0e-6
    bram18_w: float = 5.5e-3
    dsp_w: float = 5.0e-3
    reference_clock_mhz: float = 100.0

    def stage_dynamic_w(self, res: ResourceEstimate, clock_mhz: float) -> float:
        """Dynamic power of one always-busy stage."""
        scale = clock_mhz / self.reference_clock_mhz
        return scale * (self.lut_w * res.lut + self.ff_w * res.ff
                        + self.bram18_w * res.bram18 + self.dsp_w * res.dsp)

    def static_w(self, res: ResourceEstimate) -> float:
        """Static power grows weakly with the occupied fabric."""
        return self.static_base_w + 0.05 * self.stage_dynamic_w(
            res, self.reference_clock_mhz)

    # ------------------------------------------------------------------
    # accelerator-level queries
    # ------------------------------------------------------------------
    def average_power_w(self, accel: DataflowAccelerator, exit_rates,
                        arrival_ips: float) -> float:
        """Mean board power while serving ``arrival_ips`` inferences/s.

        Each stage's busy fraction is ``arrival * visits * cycles / clock``
        (capped at 1); idle stages still clock but toggle ~10 % as much.
        """
        perf = PerformanceModel(accel)
        fractions = perf.stage_visit_fractions(exit_rates)
        power = self.static_w(accel.resources())
        idle_activity = 0.10
        for idx, (cycles, res) in enumerate(zip(accel.stage_cycles,
                                                accel.stage_resources)):
            visit = fractions.get(idx, 0.0)
            busy = min(arrival_ips * visit * cycles / accel.clock_hz, 1.0)
            activity = idle_activity + (1.0 - idle_activity) * busy
            power += activity * self.stage_dynamic_w(res, accel.clock_mhz)
        return power

    def energy_per_inference_j(self, accel: DataflowAccelerator,
                               exit_rates) -> float:
        """Average energy one inference consumes (dynamic + static share).

        The static share assumes back-to-back serving: static power is
        paid for the average service latency of a frame.
        """
        perf = PerformanceModel(accel)
        fractions = perf.stage_visit_fractions(exit_rates)
        dynamic_j = 0.0
        for idx, (cycles, res) in enumerate(zip(accel.stage_cycles,
                                                accel.stage_resources)):
            visit = fractions.get(idx, 0.0)
            busy_s = cycles / accel.clock_hz
            dynamic_j += visit * busy_s * self.stage_dynamic_w(
                res, accel.clock_mhz)
        static_j = self.static_w(accel.resources()) \
            * perf.average_latency_s(exit_rates)
        return dynamic_j + static_j

    def report(self, accel: DataflowAccelerator, exit_rates,
               arrival_ips: float) -> PowerReport:
        static = self.static_w(accel.resources())
        total = self.average_power_w(accel, exit_rates, arrival_ips)
        return PowerReport(
            static_w=static,
            dynamic_w=total - static,
            energy_per_inference_j=self.energy_per_inference_j(accel,
                                                               exit_rates),
        )
