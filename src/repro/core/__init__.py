"""AdaPEx core: configuration, design-time generation, top-level facade,
plus the execution layer (process-parallel backend, per-design-point
cache, phase timing) and its crash-safety machinery (error taxonomy,
supervised pool, sweep checkpoint manifest)."""

from .errors import (
    IntegrityError,
    PermanentError,
    ReproError,
    TransientError,
    classify_error,
)
from .adapex import AdaPExFramework
from .checkpoint import SweepManifest
from .config import AdaPExConfig, paper_threshold_sweep
from .design_time import LibraryGenerator
from .halving import (
    HalvingConfig,
    HalvingReport,
    HalvingSearch,
    pareto_front,
    pareto_ranks,
)
from .instrument import PhaseTimer
from .parallel import fork_available, parallel_map, resolve_workers
from .pointcache import PointCache
from .supervise import (
    FailedPoint,
    SupervisedPool,
    SuperviseConfig,
    SweepOutcome,
)

__all__ = ["AdaPExFramework", "AdaPExConfig", "paper_threshold_sweep",
           "LibraryGenerator",
           "HalvingConfig", "HalvingReport", "HalvingSearch",
           "pareto_front", "pareto_ranks",
           "PhaseTimer", "PointCache",
           "fork_available", "parallel_map", "resolve_workers",
           "ReproError", "TransientError", "PermanentError",
           "IntegrityError", "classify_error",
           "SuperviseConfig", "SupervisedPool", "SweepOutcome",
           "FailedPoint", "SweepManifest"]
