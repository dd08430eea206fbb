"""The six benchmark workloads and their correctness checks.

Each workload is a :class:`Workload` registry entry whose ``setup``
builds a session: constructing the session is the timed set-up (fixture
load and verify, policy-table compile, one warm-up run), ``rep`` is one
timed repetition of the flow, and ``summarize`` and ``checks`` run
outside the timed region. Sessions call only the public API, the way
``repro-adapex`` does, and run everything serially.

Importing this module imports :mod:`repro` (and NumPy); the harness
times that import as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import AdaPExConfig, AdaPExFramework, paper_threshold_sweep
from repro.core.errors import IntegrityError
from repro.edge import (EdgeServerSimulator, ServerConfig, WorkloadSpec,
                        simulate_policy)
from repro.fleet import (ElasticConfig, FleetConfig, FleetFaultSpec,
                         cluster, make_tenants)
from repro.ir import export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn.trainer import TrainConfig
from repro.pruning import paper_rate_sweep, prune_model
from repro.runtime import (FaultSpec, Library, PartialReconfigModel,
                           make_policy)

__all__ = ["FIXTURE", "FIXTURE_ENTRIES", "RepResult", "Workload",
           "WORKLOADS", "generate_config", "load_fixture", "toy_config"]

#: Seed-0 output of the generate-grid flow, loaded by the serving and
#: fleet workloads so a design-time change never alters their inputs.
FIXTURE = Path(__file__).resolve().parent / "fixtures" \
    / "library_grid_seed0.json"
FIXTURE_ENTRIES = 774


def load_fixture() -> Library:
    """The fixture library, loaded strictly: schema, checksum and every
    entry are verified, and the entry count must match."""
    library = Library.load(FIXTURE)
    if len(library) != FIXTURE_ENTRIES:
        raise IntegrityError(f"fixture has {len(library)} entries, "
                             f"expected {FIXTURE_ENTRIES}")
    return library


def generate_config(seed: int, grid: bool) -> AdaPExConfig:
    """``generate --profile quick``, or its model on the paper's 18
    pruning rates x 21 confidence thresholds."""
    config = AdaPExConfig.quick(seed=seed)
    if grid:
        config.pruning_rates = paper_rate_sweep()
        config.confidence_thresholds = paper_threshold_sweep()
        config.__post_init__()
    return config


def toy_config(seed: int) -> AdaPExConfig:
    """One design point at toy scale: the generate warm-up."""
    config = AdaPExConfig.quick(seed=seed)
    config.train_samples, config.test_samples = 64, 32
    config.pruning_rates = [0.0]
    config.confidence_thresholds = [0.5]
    config.include_not_pruned_exits = False
    config.include_backbone_variant = False
    config.initial_training = TrainConfig(epochs=1, batch_size=64, lr=0.002)
    config.__post_init__()
    return config


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RepResult:
    """What one repetition produced, summarized outside the timed region.

    ``work`` is what ``work_per_s`` counts: design points for generate,
    simulated requests for evaluate and fleet. ``ops`` are the
    operations attempted (design points, server runs) and ``failed``
    those that raised or were quarantined. ``simulated`` holds the
    deterministic simulated results; ``counters`` the simulated counts
    the per-layer metrics report.
    """

    work: float
    ops: int
    failed: int
    digest: str
    simulated: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------
class GenerateSession:
    """A cold sweep with a fresh point cache, as ``generate
    --point-cache`` runs it the first time."""

    def __init__(self, seed: int, scratch: Path, grid: bool, entries: int):
        self.seed = seed
        self.scratch = scratch
        self.entries = entries
        self.config = generate_config(seed, grid)
        self.first = None
        self._cache = tempfile.mkdtemp(dir=scratch)
        try:  # warm-up through the same code path
            AdaPExFramework(toy_config(seed)).build_library(
                point_cache=self._cache)
        finally:
            shutil.rmtree(self._cache, ignore_errors=True)

    def rep(self):
        self._cache = tempfile.mkdtemp(dir=self.scratch)
        return AdaPExFramework(self.config).build_library(
            point_cache=self._cache)

    def summarize(self, library) -> RepResult:
        shutil.rmtree(self._cache, ignore_errors=True)
        if self.first is None:
            self.first = library
        quarantined = len(library.metadata.get("quarantined") or [])
        points = len(library.accelerators()) + quarantined
        return RepResult(
            work=points, ops=points, failed=quarantined,
            digest=hashlib.sha256(library.to_json().encode()).hexdigest(),
            simulated={"entries": len(library),
                       "best_accuracy": library.best_accuracy()},
            counters={"points_failed": quarantined})

    def checks(self) -> list[dict]:
        library = self.first
        path = self.scratch / "round_trip.json"
        library.save(path)
        again = Library.load(path)
        report = again.load_report
        out = [
            _check("library_round_trip",
                   again.to_json() == library.to_json()
                   and report is not None and report.checksum_ok is True,
                   "save, strict load, checksum verified"),
            _check("entry_count", len(library) == self.entries,
                   f"{len(library)} entries, expected {self.entries}"),
            _check("no_quarantined_points",
                   not library.metadata.get("quarantined"),
                   f"{len(library.metadata.get('quarantined') or [])} "
                   f"quarantined"),
        ]
        # The compiled engine that measures accuracy must match the
        # interpreted IR bit for bit on a pruned model.
        model = build_cnv(CNVConfig(width_scale=self.config.width_scale,
                                    seed=self.seed),
                          ExitsConfiguration.paper_default(pruned=True))
        pruned, _ = prune_model(model, 0.4)
        graph = export_model(pruned)
        streamline(graph)
        x = np.random.default_rng(self.seed).standard_normal(
            (16, 3, 32, 32))
        ref = graph.execute(x)
        got = graph.compile().run(x)
        out.append(_check(
            "compiled_plan_matches_interpreter",
            len(ref) == len(got)
            and all(np.array_equal(a, b) for a, b in zip(ref, got)),
            "quick CNV pruned at 40 %, 16 images, every exit"))
        return out


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------
class EvaluateSession:
    """``evaluate --policy-table``: each policy over ``runs`` seeded runs
    of the camera traffic, serial."""

    def __init__(self, seed: int, scratch: Path, policies, runs: int,
                 cameras: int = 20, batch_window_ms: float = 0.0,
                 dispatch_overhead_ms: float = 0.0,
                 partial_reconfig: str | None = None, brownout=(),
                 faults: str | None = None):
        library = load_fixture()
        partial = (PartialReconfigModel.parse(partial_reconfig)
                   if partial_reconfig else None)
        self.config = ServerConfig(
            batch_window_s=batch_window_ms / 1000.0,
            dispatch_overhead_s=dispatch_overhead_ms / 1000.0,
            partial_reconfig=partial, brownout_levels=tuple(brownout))
        self.workload = WorkloadSpec(num_cameras=cameras)
        self.faults = FaultSpec.parse(faults) if faults else None
        self.runs = runs
        # Run seeds seed*1000 .. seed*1000+runs-1: seeds never share runs.
        self.base_seed = seed * 1000
        self.fault_seed = seed
        self.first = None
        self.policies = []
        for name in policies:
            policy = make_policy(name, library)
            if partial is not None and hasattr(policy, "set_reconfig_model"):
                policy.set_reconfig_model(partial)
            if hasattr(policy, "compile_policy_table"):
                policy.compile_policy_table()
            self.policies.append(policy)
        self._simulator(self.policies[0], self.base_seed, self.config).run()

    def _simulator(self, policy, seed: int, config: ServerConfig):
        return EdgeServerSimulator(policy, workload=self.workload,
                                   config=config, seed=seed,
                                   faults=self.faults,
                                   fault_seed=self.fault_seed)

    def rep(self):
        return [simulate_policy(policy, runs=self.runs,
                                workload=self.workload, config=self.config,
                                base_seed=self.base_seed,
                                faults=self.faults,
                                fault_seed=self.fault_seed)
                for policy in self.policies]

    def summarize(self, output) -> RepResult:
        if self.first is None:
            self.first = output
        runs = [run for _, per_run in output for run in per_run]
        aggregates = {agg.policy: agg for agg, _ in output}
        adapex = aggregates["AdaPEx"]
        simulated = {"qoe": adapex.qoe,
                     "inference_loss": adapex.inference_loss,
                     "edp": adapex.edp}
        finn = aggregates.get("FINN")
        if finn is not None and finn.qoe > 0:
            simulated["qoe_vs_finn"] = adapex.qoe / finn.qoe
        return RepResult(
            work=sum(run.total_requests for run in runs),
            ops=len(runs), failed=0,
            digest=_digest([[dataclasses.asdict(agg),
                             [dataclasses.asdict(r) for r in per_run]]
                            for agg, per_run in output]),
            simulated=simulated,
            counters={"reconfigs_per_run": sum(
                run.reconfigurations for run in runs) / len(runs)})

    def checks(self) -> list[dict]:
        out = []
        for policy, (_, per_run) in zip(self.policies, self.first):
            label = getattr(policy, "name", type(policy).__name__)
            if self.faults is None:
                # The event loop is the semantics oracle of every fast
                # path this configuration takes.
                event = self._simulator(
                    policy, self.base_seed,
                    dataclasses.replace(self.config, sim_mode="event")).run()
                out.append(_check(f"event_oracle_{label}",
                                  event == per_run[0],
                                  f"seed {self.base_seed}, trace included"))
                continue
            again = self._simulator(policy, self.base_seed,
                                    self.config).run()
            out.append(_check(f"seed_exact_{label}", again == per_run[0],
                              f"seed {self.base_seed} rerun"))
            # At most the frame in service at the horizon is unaccounted.
            gaps = [run.total_requests - (run.processed + run.lost
                                          + run.dropped + run.failed
                                          + run.shed)
                    for run in per_run]
            out.append(_check(f"requests_conserved_{label}",
                              all(0 <= gap <= 1 for gap in gaps),
                              f"unaccounted per run in [{min(gaps)}, "
                              f"{max(gaps)}]"))
        return out


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class FleetSession:
    """``fleet --elastic``: one ramped, faulted elastic campaign."""

    def __init__(self, seed: int, scratch: Path, tenants: int,
                 cameras: int, ips_per_camera: float, tenant_slos,
                 ramp_s: float, servers: int, max_servers: int,
                 cooldown_s: float, duration_s: float, fleet_faults: str,
                 brownout):
        self.library = load_fixture()
        self.seed = seed
        self.tenants = make_tenants(tenants, cameras=cameras,
                                    ips_per_camera=ips_per_camera,
                                    slo_tiers=tuple(tenant_slos),
                                    ramp_s=ramp_s)
        self.config = FleetConfig(num_servers=servers,
                                  duration_s=duration_s,
                                  brownout_levels=tuple(brownout))
        self.elastic = ElasticConfig(min_servers=servers,
                                     max_servers=max_servers,
                                     cooldown_s=cooldown_s)
        self.faults = FleetFaultSpec.parse(fleet_faults)
        self.first = None
        # Warm-up: an eighth of the tenants over a sixth of the horizon.
        self._campaign(self.tenants[:max(1, tenants // 8)],
                       dataclasses.replace(self.config,
                                           duration_s=duration_s / 6))

    def _campaign(self, tenants, config, workers: int = 0):
        # Looked up on the module at call time, where the tracer wraps it.
        return cluster.simulate_fleet(
            self.library, tenants, config, seed=self.seed,
            faults=self.faults, fault_seed=self.seed,
            elastic=self.elastic, workers=workers)

    def rep(self):
        return self._campaign(self.tenants, self.config)

    def summarize(self, result) -> RepResult:
        if self.first is None:
            self.first = result
        fleet = result.fleet
        return RepResult(
            work=fleet.offered, ops=len(result.servers), failed=0,
            digest=_digest(_campaign_record(result)),
            simulated={"qoe": fleet.qoe,
                       "inference_loss": fleet.inference_loss,
                       "edp": fleet.edp,
                       "server_s": fleet.server_seconds},
            counters={"reconfigs_per_run":
                      fleet.reconfigurations / max(fleet.servers, 1),
                      "migrations": fleet.migrations,
                      "autoscale_ups": fleet.autoscale_ups})

    def checks(self) -> list[dict]:
        result = self.first
        fleet = result.fleet
        duration = self.config.duration_s
        generated = sum(len(t.arrival_times(duration, seed=(self.seed, i)))
                        for i, t in enumerate(self.tenants))
        planned = [m for m in result.migrations if m.planned]
        sharded = self._campaign(self.tenants, self.config, workers=2)
        return [
            _check("requests_conserved",
                   fleet.total_requests + fleet.failover_dropped
                   == generated,
                   f"{fleet.total_requests} served + "
                   f"{fleet.failover_dropped} failover-dropped vs "
                   f"{generated} regenerated arrivals"),
            _check("planned_migrations_lossless",
                   all(m.dropped == 0 for m in planned),
                   f"{len(planned)} planned migrations, "
                   f"{sum(m.dropped for m in planned)} frames dropped"),
            _check("workers_identical",
                   _campaign_record(sharded) == _campaign_record(result),
                   "workers=2 vs workers=0, field for field"),
        ]


def _campaign_record(result) -> list:
    return [dataclasses.asdict(result.fleet),
            [dataclasses.asdict(run) for run in result.servers],
            sorted(result.assignment.items()),
            sorted(result.reroutes.items()),
            [dataclasses.asdict(m) for m in result.migrations],
            [dataclasses.asdict(e) for e in result.scale_events],
            sorted(result.lifetimes.items()), list(result.offsets)]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One registry entry: the session type and its parameters.

    ``op_span`` is the span that times one operation for the record's
    ``op_latency``; a run times at least ``min_reps`` repetitions.
    """

    name: str
    session: type
    params: dict
    op: str
    op_span: str
    min_reps: int

    def setup(self, seed: int, scratch: Path):
        return self.session(seed=seed, scratch=scratch, **self.params)


_PAPER_POLICIES = ("adapex", "pr-only", "ct-only", "finn")

# A Table I repetition runs a slice of the paper's 100 runs per policy,
# so a run times several repetitions and reports their median.
WORKLOADS = {w.name: w for w in (
    # 3 variants x 3 rates; training is ~66 % of the time.
    Workload("generate-quick", GenerateSession,
             dict(grid=False, entries=21), "design point", "core.point",
             min_reps=2),
    # 3 variants x 18 rates: 2 x 18 x 21 early-exit + 18 backbone entries.
    # One repetition already overruns the budget.
    Workload("generate-grid", GenerateSession,
             dict(grid=True, entries=FIXTURE_ENTRIES), "design point",
             "core.point", min_reps=1),
    Workload("evaluate-paper", EvaluateSession,
             dict(policies=_PAPER_POLICIES, runs=25), "server run",
             "edge.server_run", min_reps=3),
    Workload("evaluate-stress", EvaluateSession,
             dict(policies=("adapex", "finn"), runs=25, cameras=40,
                  batch_window_ms=2.0, dispatch_overhead_ms=0.5,
                  partial_reconfig="on", brownout=(0.02, 0.05)),
             "server run", "edge.server_run", min_reps=3),
    # The cost per request moves with the fault realization: one long
    # repetition covers twice the realizations two short ones would.
    Workload("evaluate-faults", EvaluateSession,
             dict(policies=("adapex", "finn"), runs=12, faults="heavy"),
             "server run", "edge.server_run", min_reps=1),
    Workload("fleet-elastic", FleetSession,
             dict(tenants=512, cameras=4, ips_per_camera=10.0,
                  tenant_slos=(0.0, 0.15), ramp_s=30.0, servers=16,
                  max_servers=64, cooldown_s=2.0, duration_s=60.0,
                  fleet_faults="thundering-herd", brownout=(0.02, 0.05)),
             "server run", "edge.server_run", min_reps=5),
)}
