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
(a compiled design is never mutated). :class:`OperatingPoints` goes one
step further for the Library Generator, which characterizes one design
at many confidence thresholds: each stage's dynamic power and the
static power are computed once per accelerator, and each entry builds
its stage visit fractions once, so only the per-entry arithmetic — a
sequential sum over the stages in module order — is redone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compile import DataflowAccelerator
from .performance import PerformanceModel
from .resources import ResourceEstimate

__all__ = ["OperatingPoints", "PowerModel", "PowerReport"]


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
    def stage_dynamic_ws(self, accel: DataflowAccelerator) -> tuple:
        """Always-busy dynamic power of every stage, in module order."""
        return tuple(self.stage_dynamic_w(res, accel.clock_mhz)
                     for res in accel.stage_resources)

    def average_power_w(self, accel: DataflowAccelerator, exit_rates,
                        arrival_ips: float) -> float:
        """Mean board power while serving ``arrival_ips`` inferences/s.

        Each stage's busy fraction is ``arrival * visits * cycles / clock``
        (capped at 1); idle stages still clock but toggle ~10 % as much.
        """
        fractions = PerformanceModel(accel).stage_visit_fractions(exit_rates)
        return _average_power_w(accel, fractions, arrival_ips,
                                self.stage_dynamic_ws(accel),
                                self.static_w(accel.resources()))

    def energy_per_inference_j(self, accel: DataflowAccelerator,
                               exit_rates) -> float:
        """Average energy one inference consumes (dynamic + static share).

        The static share assumes back-to-back serving: static power is
        paid for the average service latency of a frame.
        """
        perf = PerformanceModel(accel)
        return _energy_per_inference_j(
            accel, perf.stage_visit_fractions(exit_rates),
            perf.average_latency_s(exit_rates),
            self.stage_dynamic_ws(accel), self.static_w(accel.resources()))

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


def _average_power_w(accel: DataflowAccelerator, fractions: dict,
                     arrival_ips: float, stage_w: tuple,
                     static_w: float) -> float:
    power = static_w
    idle_activity = 0.10
    for idx, cycles in enumerate(accel.stage_cycles):
        visit = fractions.get(idx, 0.0)
        busy = min(arrival_ips * visit * cycles / accel.clock_hz, 1.0)
        activity = idle_activity + (1.0 - idle_activity) * busy
        power += activity * stage_w[idx]
    return power


def _energy_per_inference_j(accel: DataflowAccelerator, fractions: dict,
                            avg_latency_s: float, stage_w: tuple,
                            static_w: float) -> float:
    dynamic_j = 0.0
    for idx, cycles in enumerate(accel.stage_cycles):
        visit = fractions.get(idx, 0.0)
        busy_s = cycles / accel.clock_hz
        dynamic_j += visit * busy_s * stage_w[idx]
    return dynamic_j + static_w * avg_latency_s


class OperatingPoints:
    """One accelerator's library figures at any exit-rate vector.

    The per-accelerator constants (each stage's dynamic power, the
    static power) are computed once; :meth:`at` validates the exit
    rates and builds the stage visit fractions once per entry. The
    figures equal, bit for bit, what
    :meth:`PerformanceModel.serving_capacity_ips`,
    :meth:`PerformanceModel.average_latency_s`,
    :meth:`PowerModel.energy_per_inference_j` and
    :meth:`PowerModel.average_power_w` (idle and at the serving rate)
    return.
    """

    def __init__(self, accel: DataflowAccelerator, power_model: PowerModel,
                 inflight: int = 1):
        if inflight < 1:
            raise ValueError("inflight must be >= 1")
        self.accel = accel
        self.perf = PerformanceModel(accel)
        self.inflight = inflight
        self._stage_w = power_model.stage_dynamic_ws(accel)
        self._static_w = power_model.static_w(accel.resources())

    def at(self, exit_rates) -> tuple:
        """``(serving_ips, latency_s, energy_j, idle_w, busy_w)``."""
        perf, accel = self.perf, self.accel
        rates = perf._rates(exit_rates)
        fractions = perf._visit_fractions(rates)
        latency = perf._average_latency(rates)
        serving = perf._serving(latency, perf._capacity(fractions),
                                self.inflight)
        energy = _energy_per_inference_j(accel, fractions, latency,
                                         self._stage_w, self._static_w)
        idle = _average_power_w(accel, fractions, 0.0, self._stage_w,
                                self._static_w)
        busy = _average_power_w(accel, fractions, serving, self._stage_w,
                                self._static_w)
        return serving, latency, energy, idle, busy
