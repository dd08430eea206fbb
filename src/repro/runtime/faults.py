"""Deterministic fault injection for the runtime serving stack.

The paper's Runtime Manager assumes every FPGA reconfiguration (~145 ms)
and every inference completes cleanly. A production edge server does not
get that luxury: partial-reconfiguration DMA transfers fail, accelerators
return transient errors, the ingest network drops frames, and workloads
spike beyond the characterized envelope. This module models those
non-ideal conditions as an explicit, *seeded* fault plan so that chaos
campaigns are byte-reproducible and double as regression tests:

* :class:`FaultSpec` — the declarative fault model (probabilities, jitter
  magnitudes, spike shape, retry budget, active time window). Frozen and
  picklable, so it ships to the parallel simulation workers unchanged.
* :class:`FaultPlan` — one seeded realization of a spec. Every fault
  category draws from its own independent PCG64 stream, so e.g. the
  spike schedule of a run does not depend on how many drop decisions
  were sampled before it. Two plans built from the same ``(spec, seed)``
  make identical decisions forever.

The event-loop simulator asks the plan one question per event
(``drop_request``, ``inference_fails``, ``reconfig_outcome``) and merges
``spike_arrivals`` into the workload before the run starts. The serving
fast path (:mod:`repro.edge.fastsim`) asks the same questions in bulk:
``drop_mask`` decides every arrival's drop with one draw, and
``inference_failure_block`` pre-draws the inference stream 1024
decisions at a time, one decision per completion inside the active
window. Because each category's stream is private to the plan, both
give exactly the scalar calls' decisions.
When no spec is given the simulator never touches a plan, keeping
fault-free runs bit-identical to the pre-fault code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.spec import check_finite, parse_spec

__all__ = ["FaultSpec", "FaultPlan", "FAULT_PRESETS"]


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model for one campaign.

    Probabilities are per-event (per request, per reconfiguration
    attempt); jitter is the relative half-width of a uniform multiplier
    on the nominal reconfiguration time. Faults are only injected inside
    ``[active_from_s, active_until_s)`` (``None`` = until the end), which
    lets tests assert that the server converges back to the optimal
    operating point after faults clear.
    """

    reconfig_failure_prob: float = 0.0
    reconfig_jitter: float = 0.0
    inference_error_prob: float = 0.0
    drop_prob: float = 0.0
    spike_prob: float = 0.0
    spike_factor: float = 3.0
    spike_duration_s: float = 2.0
    reconfig_retries: int = 2
    retry_backoff_s: float = 0.05
    inference_retries: int = 1
    active_from_s: float = 0.0
    active_until_s: float | None = None

    def __post_init__(self):
        check_finite(self)
        for name in ("reconfig_failure_prob", "inference_error_prob",
                     "drop_prob", "spike_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.reconfig_jitter < 1.0:
            raise ValueError("reconfig_jitter must be in [0, 1)")
        if self.spike_factor < 1.0:
            raise ValueError("spike_factor must be >= 1")
        if self.spike_duration_s <= 0:
            raise ValueError("spike_duration_s must be positive")
        for name in ("reconfig_retries", "inference_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.active_from_s < 0:
            raise ValueError("active_from_s must be >= 0")
        if self.active_until_s is not None \
                and self.active_until_s <= self.active_from_s:
            raise ValueError("active_until_s must exceed active_from_s")

    @property
    def any_faults(self) -> bool:
        return any(getattr(self, n) > 0 for n in (
            "reconfig_failure_prob", "reconfig_jitter",
            "inference_error_prob", "drop_prob", "spike_prob"))

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from a CLI string in the grammar of
        :mod:`repro.core.spec`: a preset name (``light``/``heavy``/
        ``chaos``), ``key=value`` overrides, or a preset followed by
        overrides: ``"heavy,drop_prob=0.1"``.
        """
        return parse_spec(cls, text, FAULT_PRESETS, "fault")

    def plan(self, seed) -> "FaultPlan":
        return FaultPlan(self, seed)


#: Named campaign intensities for the CLI (``--faults heavy``).
FAULT_PRESETS = {
    "light": FaultSpec(reconfig_failure_prob=0.05, reconfig_jitter=0.10,
                       drop_prob=0.005),
    "heavy": FaultSpec(reconfig_failure_prob=0.30, reconfig_jitter=0.25,
                       inference_error_prob=0.02, drop_prob=0.02,
                       spike_prob=0.20),
    "chaos": FaultSpec(reconfig_failure_prob=0.50, reconfig_jitter=0.50,
                       inference_error_prob=0.05, drop_prob=0.05,
                       spike_prob=0.30, spike_factor=4.0),
}


def _category_rng(seed, category: int) -> np.random.Generator:
    """Independent stream per fault category (decisions in one category
    never shift the draws of another)."""
    if isinstance(seed, (tuple, list)):
        entropy = [int(s) for s in seed] + [category]
    else:
        entropy = [int(seed), category]
    return np.random.default_rng(entropy)


class FaultPlan:
    """One seeded, deterministic realization of a :class:`FaultSpec`."""

    def __init__(self, spec: FaultSpec, seed=0):
        self.spec = spec
        self.seed = seed
        self._drop_rng = _category_rng(seed, 0)
        self._reconfig_rng = _category_rng(seed, 1)
        self._inference_rng = _category_rng(seed, 2)
        self._spike_rng = _category_rng(seed, 3)
        #: Counts of every fault actually injected, for reporting.
        self.injected = {"drops": 0, "reconfig_failures": 0,
                         "inference_errors": 0, "spike_windows": 0,
                         "spike_requests": 0}

    def active(self, now: float) -> bool:
        s = self.spec
        return now >= s.active_from_s and (
            s.active_until_s is None or now < s.active_until_s)

    # ------------------------------------------------------------------
    # per-event decisions
    # ------------------------------------------------------------------
    def drop_request(self, now: float) -> bool:
        """Ingress network loss: the request never reaches the server."""
        s = self.spec
        if s.drop_prob == 0.0 or not self.active(now):
            return False
        hit = bool(self._drop_rng.random() < s.drop_prob)
        if hit:
            self.injected["drops"] += 1
        return hit

    def inference_fails(self, now: float) -> bool:
        """Transient accelerator error on one inference."""
        s = self.spec
        if s.inference_error_prob == 0.0 or not self.active(now):
            return False
        hit = bool(self._inference_rng.random() < s.inference_error_prob)
        if hit:
            self.injected["inference_errors"] += 1
        return hit

    def reconfig_outcome(self, now: float,
                         nominal_s: float) -> tuple[bool, float]:
        """Outcome of one reconfiguration attempt.

        Returns ``(fails, duration_s)``: whether the attempt fails (time
        is still burned either way) and the jittered swap duration.
        """
        s = self.spec
        fails = False
        duration = nominal_s
        if not self.active(now):
            return fails, duration
        if s.reconfig_failure_prob > 0.0:
            fails = bool(self._reconfig_rng.random()
                         < s.reconfig_failure_prob)
            if fails:
                self.injected["reconfig_failures"] += 1
        if s.reconfig_jitter > 0.0:
            duration = nominal_s * float(self._reconfig_rng.uniform(
                1.0 - s.reconfig_jitter, 1.0 + s.reconfig_jitter))
        return fails, duration

    # ------------------------------------------------------------------
    # vectorized decisions (the serving fast path)
    # ------------------------------------------------------------------
    def drop_mask(self, times: np.ndarray) -> np.ndarray:
        """:meth:`drop_request` for every time of a sorted array at once.

        Draws one uniform per time inside the active window, in order,
        so the mask equals successive scalar ``drop_request`` calls on
        the same plan (``injected["drops"]`` included).
        """
        times = np.asarray(times, dtype=np.float64)
        mask = np.zeros(times.shape, dtype=bool)
        s = self.spec
        if s.drop_prob == 0.0 or times.size == 0:
            return mask
        active = times >= s.active_from_s
        if s.active_until_s is not None:
            active &= times < s.active_until_s
        hits = self._drop_rng.random(int(active.sum())) < s.drop_prob
        mask[active] = hits
        self.injected["drops"] += int(hits.sum())
        return mask

    def inference_failure_block(self) -> list[bool]:
        """The next 1024 successive :meth:`inference_fails` outcomes.

        Entry ``k`` of successive blocks is the decision the ``k``-th
        *active* completion gets (the caller checks :meth:`active` first,
        as ``inference_fails`` does), so a caller reads the decisions by
        index and draws the next block when one runs out. The blocks own
        the inference stream from the first call on, and
        ``injected["inference_errors"]`` is not updated: the caller
        knows how many decisions it consumed.
        """
        return (self._inference_rng.random(1024)
                < self.spec.inference_error_prob).tolist()

    # ------------------------------------------------------------------
    # workload spikes
    # ------------------------------------------------------------------
    def spike_arrivals(self, duration_s: float,
                       nominal_ips: float) -> np.ndarray:
        """Extra arrival times from workload spikes over a whole run.

        The run is divided into windows of ``spike_duration_s``; each
        active window independently spikes with ``spike_prob``, adding
        Poisson arrivals at ``nominal_ips * (spike_factor - 1)`` on top
        of the base workload.
        """
        s = self.spec
        if s.spike_prob == 0.0 or s.spike_factor <= 1.0:
            return np.empty(0)
        extra_rate = nominal_ips * (s.spike_factor - 1.0)
        times = []
        t = 0.0
        while t < duration_s:
            t1 = min(t + s.spike_duration_s, duration_s)
            if self.active(t) \
                    and self._spike_rng.random() < s.spike_prob:
                count = int(self._spike_rng.poisson(
                    extra_rate * (t1 - t)))
                if count:
                    times.append(self._spike_rng.uniform(t, t1,
                                                         size=count))
                    self.injected["spike_requests"] += count
                self.injected["spike_windows"] += 1
            t = t1
        if not times:
            return np.empty(0)
        out = np.concatenate(times)
        out.sort()
        return out
