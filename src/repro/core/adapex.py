"""AdaPEx facade: design-time generation + runtime evaluation in one place.

This is the high-level entry point downstream users interact with::

    from repro import AdaPExFramework, AdaPExConfig

    framework = AdaPExFramework(AdaPExConfig.quick())
    library = framework.build_library()
    results = framework.evaluate_at_edge(["adapex", "finn"], runs=5)
"""

from __future__ import annotations

import os

from ..edge.metrics import AggregateMetrics
from ..edge.server import ServerConfig, simulate_policy
from ..edge.cameras import WorkloadSpec
from ..runtime.baselines import make_policy
from ..runtime.library import Library
from ..runtime.manager import SelectionPolicy
from .config import AdaPExConfig
from .design_time import LibraryGenerator
from .instrument import PhaseTimer

__all__ = ["AdaPExFramework"]


class AdaPExFramework:
    """End-to-end driver for the reproduction."""

    def __init__(self, config: AdaPExConfig | None = None):
        self.config = config or AdaPExConfig()
        self._library: Library | None = None

    # ------------------------------------------------------------------
    # design time
    # ------------------------------------------------------------------
    def build_library(self, progress=None,
                      cache_dir: str | None = None,
                      point_cache=None,
                      timer: PhaseTimer | None = None,
                      supervise=None) -> Library:
        """Generate (or load from cache) the design-time Library.

        ``cache_dir`` enables a JSON disk cache keyed by the config
        fingerprint — library generation trains dozens of models, so the
        benchmarks reuse it across invocations. On a whole-library miss,
        the per-design-point cache kicks in: ``point_cache`` (a
        :class:`~repro.core.pointcache.PointCache`, a directory path, or
        ``True`` to place it under ``cache_dir/points``) lets interrupted
        or incremental sweeps reuse every already-characterized point.
        ``timer`` (a :class:`~repro.core.instrument.PhaseTimer`) collects
        per-phase wall time for the run. ``supervise`` (a
        :class:`~repro.core.supervise.SuperviseConfig`) tunes per-point
        timeouts/retries/quarantine for the sweep.
        """
        if self._library is not None:
            return self._library
        cache_path = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            cache_path = os.path.join(
                cache_dir, f"library_{self.config.dataset}_"
                f"{self.config.cache_key()}.json")
            if os.path.exists(cache_path):
                self._library = Library.load(cache_path)
                return self._library
        if point_cache is True:
            if cache_dir is None:
                raise ValueError("point_cache=True requires cache_dir")
            point_cache = os.path.join(cache_dir, "points")
        generator = LibraryGenerator(self.config)
        self._library = generator.generate(progress=progress,
                                           point_cache=point_cache,
                                           timer=timer,
                                           supervise=supervise)
        # A partial library (quarantined design points) must not poison
        # the whole-library cache: a later run could otherwise mistake
        # it for the complete sweep.
        if cache_path is not None \
                and "quarantined" not in self._library.metadata:
            self._library.save(cache_path)
        return self._library

    @property
    def library(self) -> Library:
        if self._library is None:
            raise RuntimeError("call build_library() first")
        return self._library

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def policy(self, name: str = "adapex",
               selection: SelectionPolicy | None = None):
        """Instantiate a runtime policy over the built library."""
        return make_policy(name, self.library, selection)

    def evaluate_at_edge(
        self,
        policies=("adapex", "pr-only", "ct-only", "finn"),
        runs: int = 100,
        workload: WorkloadSpec | None = None,
        server: ServerConfig | None = None,
        selection: SelectionPolicy | None = None,
        base_seed: int = 0,
        parallel: bool | int = False,
        timer: PhaseTimer | None = None,
    ) -> dict[str, AggregateMetrics]:
        """Simulate the edge scenario for each policy; returns aggregates
        keyed by policy display name.

        ``parallel`` fans each policy's runs out over worker processes
        (seed-exact, see :func:`repro.edge.simulate_policy`); ``timer``
        accumulates the wall time under a ``simulate`` phase.
        """
        timer = timer or PhaseTimer()
        results: dict[str, AggregateMetrics] = {}
        for name in policies:
            policy = self.policy(name, selection)
            with timer.phase("simulate"):
                aggregate, _ = simulate_policy(
                    policy, runs=runs, workload=workload, config=server,
                    base_seed=base_seed, parallel=parallel)
            results[aggregate.policy] = aggregate
        return results
