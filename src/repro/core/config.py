"""Top-level AdaPEx configuration.

Bundles every knob of the design-time flow: dataset, model scale,
quantization, exits, pruning-rate sweep, confidence-threshold sweep,
training budgets, and the hardware target. The paper's settings are the
defaults (18 pruning rates 0-85 %, thresholds 0-100 % in 5 % steps,
exits after blocks 1 and 2, ZCU104 at 100 MHz); the model/dataset scale
knobs exist because full-width CNV training is not feasible in pure
NumPy — see DESIGN.md's scale-down policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..finn.device import FPGADevice, ZCU104
from ..finn.power import PowerModel
from ..models.exits import ExitsConfiguration
from ..nn.quant import QuantSpec
from ..nn.trainer import TrainConfig
from ..pruning.schedule import paper_rate_sweep

__all__ = ["AdaPExConfig", "paper_threshold_sweep"]

# Bump when the design-time flow changes semantics (invalidates caches).
_FLOW_VERSION = 3


def paper_threshold_sweep() -> list[float]:
    """The paper's confidence thresholds: 0 to 100 % in 5 % steps."""
    return [round(0.05 * i, 2) for i in range(21)]


@dataclass
class AdaPExConfig:
    """Everything the Library Generator needs."""

    # -- dataset ---------------------------------------------------------
    dataset: str = "cifar10"
    train_samples: int = 1500
    test_samples: int = 500

    # -- model -----------------------------------------------------------
    width_scale: float = 0.25           # accuracy-twin width
    resource_width_scale: float = 1.0   # hardware-twin width
    quant: QuantSpec = field(default_factory=QuantSpec)
    exits: ExitsConfiguration = field(
        default_factory=ExitsConfiguration.paper_default)

    # -- design space ----------------------------------------------------
    pruning_rates: list = field(default_factory=paper_rate_sweep)
    confidence_thresholds: list = field(default_factory=paper_threshold_sweep)
    include_not_pruned_exits: bool = True
    include_backbone_variant: bool = True  # no-exit models (FINN / PR-Only)
    # Precision axis: each named precision multiplies the design space
    # (pruning rate x precision x threshold). "base" is the trained
    # QuantSpec (the paper's W2A2); any other name must appear in
    # :data:`repro.nn.quant.PRECISION_SPECS` and is applied to the trained
    # model by post-training quantization before characterization.
    precisions: list = field(default_factory=lambda: ["base"])
    # Pruning-criterion axis: each named criterion from
    # :data:`repro.pruning.ranking.CRITERIA` multiplies the design space.
    # "l1" is the paper's magnitude ranking; "fpgm" ranks by geometric-
    # median redundancy; "hapm" reallocates the removal budget toward
    # layers with high per-frame cycle cost in the FINN model.
    criteria: list = field(default_factory=lambda: ["l1"])
    # Retraining-schedule axis: "hard" (prune once, then retrain) and/or
    # "psfp" (progressive soft filter pruning — see
    # :mod:`repro.pruning.schedule`).
    schedules: list = field(default_factory=lambda: ["hard"])
    # Model zero-skipping MVTUs (cycle counts scale with weight density,
    # floored by control overhead) when compiling accelerators.
    zero_skip: bool = False

    # -- training --------------------------------------------------------
    initial_training: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=6, batch_size=64, lr=0.002))
    retraining: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=1, batch_size=64, lr=0.001))
    use_augmentation: bool = False

    # -- hardware --------------------------------------------------------
    device: FPGADevice = field(default_factory=lambda: ZCU104)
    clock_mhz: float = 100.0
    power_model: PowerModel = field(default_factory=PowerModel)
    inflight: int = 1  # frames in flight in the host serving loop

    # -- misc --------------------------------------------------------------
    seed: int = 0
    parallel_workers: int = 1
    # Compute precision of the NumPy substrate. "float64" (default) keeps
    # results bit-stable with the golden traces; "float32" roughly halves
    # memory traffic and doubles BLAS throughput at a small accuracy delta.
    compute_dtype: str = "float64"

    def __post_init__(self):
        if self.train_samples < 1 or self.test_samples < 1:
            raise ValueError("sample counts must be positive")
        if not (math.isfinite(self.resource_width_scale)
                and self.resource_width_scale > 0):
            raise ValueError(
                f"resource_width_scale must be > 0 and finite, "
                f"got {self.resource_width_scale!r}")
        if not self.pruning_rates:
            raise ValueError("need at least one pruning rate")
        if any(not 0.0 <= r < 1.0 for r in self.pruning_rates):
            raise ValueError("pruning rates must be in [0, 1)")
        if not self.confidence_thresholds:
            raise ValueError("need at least one confidence threshold")
        if self.parallel_workers < 1:
            raise ValueError("parallel_workers must be >= 1")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', "
                f"got {self.compute_dtype!r}")
        if not self.precisions:
            raise ValueError("need at least one precision")
        from ..nn.quant import PRECISION_SPECS
        for p in self.precisions:
            if p != "base" and p not in PRECISION_SPECS:
                raise ValueError(
                    f"unknown precision {p!r}: expected 'base' or one of "
                    f"{sorted(PRECISION_SPECS)}")
        if len(set(self.precisions)) != len(self.precisions):
            raise ValueError("duplicate precisions")
        from ..pruning.ranking import CRITERIA
        from ..pruning.schedule import SCHEDULES
        if not self.criteria:
            raise ValueError("need at least one pruning criterion")
        for c in self.criteria:
            if c not in CRITERIA:
                raise ValueError(
                    f"unknown pruning criterion {c!r}: expected one of "
                    f"{sorted(CRITERIA)}")
        if len(set(self.criteria)) != len(self.criteria):
            raise ValueError("duplicate criteria")
        if not self.schedules:
            raise ValueError("need at least one retraining schedule")
        for s in self.schedules:
            if s not in SCHEDULES:
                raise ValueError(
                    f"unknown retraining schedule {s!r}: expected one of "
                    f"{sorted(SCHEDULES)}")
        if len(set(self.schedules)) != len(self.schedules):
            raise ValueError("duplicate schedules")

    @property
    def np_dtype(self):
        """The :mod:`numpy` dtype selected by ``compute_dtype``."""
        import numpy as np

        return np.dtype(self.compute_dtype)

    @classmethod
    def quick(cls, dataset: str = "cifar10", seed: int = 0) -> "AdaPExConfig":
        """A minutes-scale configuration for tests and smoke runs."""
        return cls(
            dataset=dataset,
            train_samples=384,
            test_samples=192,
            width_scale=0.125,
            pruning_rates=[0.0, 0.4, 0.8],
            confidence_thresholds=[0.05, 0.5, 0.95],
            initial_training=TrainConfig(epochs=2, batch_size=64, lr=0.002),
            retraining=TrainConfig(epochs=0, batch_size=64, lr=0.001),
            seed=seed,
        )

    @classmethod
    def paper(cls, dataset: str = "cifar10", seed: int = 0) -> "AdaPExConfig":
        """The full paper sweep at the default reproduction scale."""
        return cls(dataset=dataset, seed=seed)

    def _key_parts(self, include_rate_sweep: bool = True) -> list:
        parts = [
            _FLOW_VERSION,
            self.dataset, self.train_samples, self.test_samples,
            self.width_scale, self.resource_width_scale,
            self.quant.name, len(self.exits.exits),
            tuple(self.confidence_thresholds),
            self.include_not_pruned_exits, self.include_backbone_variant,
            self.initial_training.epochs, self.initial_training.lr,
            self.retraining.epochs, self.use_augmentation,
            self.device.part, self.clock_mhz, self.inflight, self.seed,
        ]
        # Appended conditionally so float64 keys (and the golden-trace
        # fixtures pinning them) are unchanged from before the dtype
        # policy existed.
        if self.compute_dtype != "float64":
            parts.append(self.compute_dtype)
        # Same back-compat rule for the zero-skip axis: the default
        # leaves keys untouched. The salt's version 2 marks MVTU
        # densities read from the accuracy twin's quantized weights
        # (version 1 read the untrained hardware twin's).
        if self.zero_skip:
            parts.append(("zero_skip", 2))
        if include_rate_sweep:
            parts.append(tuple(self.pruning_rates))
            # Like the rate sweep, the precision sweep identifies the
            # *library*, not a point: each point's own precision salts its
            # PointCache key, so extending the sweep keeps old hits.
            if list(self.precisions) != ["base"]:
                parts.append(tuple(self.precisions))
            # Criterion and schedule axes follow the same rule: the sweep
            # lists identify the library, each point salts its own key.
            if list(self.criteria) != ["l1"]:
                parts.append(("criteria", tuple(self.criteria)))
            if list(self.schedules) != ["hard"]:
                parts.append(("schedules", tuple(self.schedules)))
        return parts

    def precision_spec(self, precision: str) -> "QuantSpec | None":
        """The :class:`QuantSpec` to PTQ-apply for a named precision.

        ``None`` for ``"base"``: the trained model is used as-is.
        """
        if precision == "base":
            return None
        from ..nn.quant import PRECISION_SPECS

        try:
            return PRECISION_SPECS[precision]
        except KeyError:
            raise ValueError(f"unknown precision {precision!r}") from None

    @staticmethod
    def _digest(parts: list) -> str:
        import hashlib

        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]

    def cache_key(self) -> str:
        """Stable fingerprint for disk caching of generated libraries.

        ``_FLOW_VERSION`` salts the key: bump it whenever the design-time
        flow's semantics change, so stale caches are ignored.
        """
        return self._digest(self._key_parts(include_rate_sweep=True))

    def point_cache_key(self) -> str:
        """Fingerprint for the per-design-point cache.

        Identical to :meth:`cache_key` except the pruning-rate sweep is
        excluded: one point's result does not depend on which *other*
        rates are swept, so extending an existing sweep with new rates
        still hits every previously characterized point.
        """
        return self._digest(self._key_parts(include_rate_sweep=False))
