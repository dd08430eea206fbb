"""Camera-fleet workload generation.

The paper models 20 cameras each requesting 30 inferences per second for
25 seconds, with the aggregate rate deviating randomly by up to ±30 %
every 5 seconds (IPS fluctuation, network congestion, cameras joining or
leaving). Each camera emits frames at its current rate with a random
phase; the per-window deviation is drawn independently per camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WorkloadSpec", "CameraFleet"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the smart-surveillance workload."""

    num_cameras: int = 20
    ips_per_camera: float = 30.0
    duration_s: float = 25.0
    deviation: float = 0.30
    deviation_interval_s: float = 5.0

    def __post_init__(self):
        if self.num_cameras < 1:
            raise ValueError("need at least one camera")
        for name in ("ips_per_camera", "duration_s",
                     "deviation_interval_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.ips_per_camera <= 0 or self.duration_s <= 0:
            raise ValueError("rates and duration must be positive")
        if not 0.0 <= self.deviation < 1.0:
            raise ValueError("deviation must be in [0, 1)")
        if self.deviation_interval_s <= 0:
            raise ValueError("deviation_interval_s must be positive")

    @property
    def nominal_ips(self) -> float:
        return self.num_cameras * self.ips_per_camera

    def num_windows(self) -> int:
        return int(np.ceil(self.duration_s / self.deviation_interval_s))


class CameraFleet:
    """Generates the full arrival-time trace for one simulation run."""

    def __init__(self, spec: WorkloadSpec | None = None, seed: int = 0):
        self.spec = spec or WorkloadSpec()
        self.seed = seed

    def window_rates(self) -> np.ndarray:
        """Aggregate arrival rate per deviation window, shape (windows,)."""
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        per_cam = rng.uniform(
            1.0 - spec.deviation, 1.0 + spec.deviation,
            size=(spec.num_windows(), spec.num_cameras),
        ) * spec.ips_per_camera
        return per_cam.sum(axis=1)

    #: Cap on the elements of one dense (groups, max_count) work matrix
    #: in :meth:`arrival_times`; larger workloads process in row chunks.
    _MAX_MATRIX_ELEMS = 16_000_000

    def arrival_times(self) -> np.ndarray:
        """Sorted arrival times of every inference request in the run.

        Within a window each camera emits periodically at its deviated
        rate with a random phase, which matches the paper's constant-rate
        cameras while avoiding pathological synchronization.

        The per-(window, camera) trains are materialized as one dense
        matrix instead of per-group ``np.arange`` calls, replicating
        arange's exact fill rule — element 0 is ``first``, element 1 is
        ``first + period``, and elements ``k >= 2`` are ``first + k *
        delta`` with ``delta`` *reconstructed* as ``(first + period) -
        first`` — so the returned array is byte-identical to the
        historical per-group loop (pinned by a regression test).
        """
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        windows = spec.num_windows()
        deviations = rng.uniform(1.0 - spec.deviation, 1.0 + spec.deviation,
                                 size=(windows, spec.num_cameras))
        phases = rng.uniform(0.0, 1.0, size=spec.num_cameras)

        periods = 1.0 / (spec.ips_per_camera * deviations)
        t0 = np.arange(windows) * spec.deviation_interval_s
        t1 = np.minimum(t0 + spec.deviation_interval_s, spec.duration_s)
        firsts = (t0[:, None] + phases[None, :] * periods).ravel()
        steps = periods.ravel()
        delta = np.repeat(t1, spec.num_cameras) - firsts
        # np.arange(first, stop, step) emits ceil((stop - first) / step)
        # elements (0 when the range is empty).
        counts = np.where(delta > 0,
                          np.ceil(delta / steps), 0.0).astype(np.int64)
        np.maximum(counts, 0, out=counts)
        total = int(counts.sum())
        out = np.empty(total, dtype=np.float64)
        max_count = int(counts.max()) if counts.size else 0
        if max_count:
            seconds = firsts + steps
            deltas = seconds - firsts
            chunk = max(1, self._MAX_MATRIX_ELEMS // max_count)
            col = np.arange(max_count, dtype=np.float64)
            pos = 0
            for lo in range(0, len(steps), chunk):
                hi = min(lo + chunk, len(steps))
                mat = (firsts[lo:hi, None]
                       + col[None, :] * deltas[lo:hi, None])
                if max_count > 1:
                    mat[:, 1] = seconds[lo:hi]
                mask = col[None, :] < counts[lo:hi, None]
                vals = mat[mask]
                out[pos:pos + vals.size] = vals
                pos += vals.size
        out.sort()
        return out

    def expected_total_requests(self) -> float:
        return float(self.window_rates().sum()
                     * self.spec.deviation_interval_s)
