"""Equivalence suite for the vectorized serving fast path.

``repro.edge.fastsim`` promises **bit-identical** ``RunMetrics``
(including per-tick traces) to the discrete-event oracle, with a
whole-run fallback whenever it cannot prove equivalence. These tests
pin that contract: hypothesis drives random workloads, queue
capacities, decision intervals and policies through both engines and
compares every field exactly; fault campaigns must route to the
event-loop fallback; and a chaos case checks the dispatcher end-to-end
under the heavy fault preset.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import (
    SIM_MODES,
    CameraFleet,
    ServerConfig,
    WorkloadSpec,
    simulate_policy,
)
from repro.edge import fastsim
from repro.edge.server import EdgeServerSimulator
from repro.runtime import make_policy
from repro.runtime.faults import FaultSpec

from repro.runtime import Library
from tests.conftest import make_entry as _entry


def build_library(seed: int = 0, thresholds=(0.1, 0.5, 0.9)) -> Library:
    lib = Library(metadata={"dataset": "toy"})
    grid = [(0.0, 0.90, 400.0), (0.4, 0.84, 650.0), (0.8, 0.74, 1100.0)]
    for rate, acc, ips in grid:
        for ct, dacc, dips, rates in zip(
                thresholds,
                (-0.06, -0.02, 0.0),
                (+250.0, +120.0, 0.0),
                ((0.8, 0.15, 0.05), (0.45, 0.30, 0.25),
                 (0.05, 0.15, 0.80))):
            lib.add(_entry(rate=rate, ct=ct, acc=acc + dacc,
                           ips=ips + dips, rates=rates))
        lib.add(_entry(rate=rate, ct=1.0, acc=acc - 0.01, ips=ips - 20.0,
                       variant="backbone"))
    return lib


def run_metrics(policy_lib, workload, config, seed, faults=None):
    sim = EdgeServerSimulator(
        make_policy("adapex", policy_lib), workload, config=config,
        seed=seed, faults=faults)
    return sim.run()


def assert_identical(a, b):
    """Every RunMetrics field exactly equal, traces compared per key."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    ta, tb = da.pop("trace"), db.pop("trace")
    assert da == db
    assert set(ta) == set(tb)
    for key in ta:
        assert ta[key] == tb[key], f"trace[{key!r}] differs"


workloads = st.builds(
    WorkloadSpec,
    num_cameras=st.integers(1, 12),
    ips_per_camera=st.floats(5.0, 120.0, allow_nan=False),
    duration_s=st.floats(0.5, 12.0, allow_nan=False),
    deviation=st.floats(0.0, 0.6, allow_nan=False),
    deviation_interval_s=st.floats(0.3, 5.0, allow_nan=False),
)


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        workload=workloads,
        seed=st.integers(0, 2**20),
        capacity=st.sampled_from([1, 2, 5, 32, 256]),
        interval=st.floats(0.1, 4.0, allow_nan=False),
    )
    def test_random_conditions(self, workload, seed, capacity, interval):
        lib = build_library()
        cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                   record_trace=True)
        event = run_metrics(lib, workload,
                            ServerConfig(sim_mode="event", **cfg), seed)
        fast = run_metrics(lib, workload,
                           ServerConfig(sim_mode="auto", **cfg), seed)
        assert_identical(event, fast)

    def test_fast_path_actually_engages(self):
        """The fast path accepts the default fault-free setup — guards
        against it silently never running."""
        sim = EdgeServerSimulator(
            make_policy("adapex", build_library()), WorkloadSpec())
        assert fastsim.run_fast(sim) is not None

    def test_golden_conditions(self):
        """The exact conditions pinned by tests/fixtures/golden_trace.json
        agree between the engines (the fixture itself pins event-mode
        values; sim_mode='auto' must reproduce them via the fast path)."""
        workload = WorkloadSpec(num_cameras=6, ips_per_camera=40.0,
                                duration_s=10.0, deviation=0.3,
                                deviation_interval_s=2.0)
        for seed in range(3):
            event = run_metrics(build_library(), workload,
                                ServerConfig(sim_mode="event"), seed)
            auto = run_metrics(build_library(), workload,
                               ServerConfig(sim_mode="auto"), seed)
            assert_identical(event, auto)

    def test_campaign_aggregates_identical(self):
        lib = build_library()
        out = {}
        for mode in ("event", "auto"):
            agg, runs = simulate_policy(
                make_policy("adapex", lib), runs=4,
                workload=WorkloadSpec(num_cameras=4, ips_per_camera=50.0,
                                      duration_s=6.0),
                config=ServerConfig(sim_mode=mode), base_seed=3)
            out[mode] = (dataclasses.asdict(agg),
                         [dataclasses.asdict(r) for r in runs])
        assert out["event"] == out["auto"]


class TiedTrace:
    """Camera traffic with arrivals rounded to the millisecond, so frames
    from different cameras share timestamps."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.duration_s = spec.duration_s
        self.nominal_ips = spec.nominal_ips

    def arrival_times(self, seed):
        return np.round(CameraFleet(self.spec, seed=seed).arrival_times(), 3)


class TestTiedArrivals:
    """Tied arrival times through both engines: without batching they
    stay separate services; with it they may share one."""

    @pytest.mark.parametrize("knobs", [
        {},
        dict(dispatch_overhead_s=0.002),
        dict(batch_window_s=0.02, dispatch_overhead_s=0.0005),
    ], ids=["unbatched", "overhead-only", "window"])
    @settings(max_examples=10, deadline=None)
    @given(
        cameras=st.integers(6, 12),
        ips=st.floats(60.0, 120.0, allow_nan=False),
        duration=st.floats(2.0, 8.0, allow_nan=False),
        seed=st.integers(0, 2**20),
        capacity=st.sampled_from([2, 8, 32]),
    )
    def test_event_vs_fast(self, knobs, cameras, ips, duration, seed,
                           capacity):
        trace = TiedTrace(WorkloadSpec(
            num_cameras=cameras, ips_per_camera=ips, duration_s=duration,
            deviation=0.3, deviation_interval_s=1.0))
        arrivals = trace.arrival_times(seed)
        assert len(np.unique(arrivals)) < len(arrivals)
        # Arrivals sit on a 1 ms grid and exit latencies on a 0.5 ms
        # one; an interval off that grid keeps completions off the
        # ticks, so the fast path never has to decline the run.
        cfg = ServerConfig(queue_capacity=capacity,
                           decision_interval_s=0.7071067811865476,
                           record_trace=True, **knobs)
        sim = EdgeServerSimulator(make_policy("adapex", build_library()),
                                  trace, config=cfg, seed=seed)
        fast = fastsim.run_fast(sim)
        assert fast is not None
        assert_identical(sim._run_event(), fast)
        if not cfg.batching:
            assert fast.batches == 0


class TestFallback:
    @settings(max_examples=10, deadline=None)
    @given(preset=st.sampled_from(["light", "heavy", "chaos"]),
           seed=st.integers(0, 1000))
    def test_faults_route_to_event_loop(self, preset, seed):
        """Any fault spec disqualifies the fast path: run_fast returns
        None and the dispatcher produces the event-loop result."""
        lib = build_library()
        workload = WorkloadSpec(num_cameras=3, ips_per_camera=30.0,
                                duration_s=4.0)
        faults = FaultSpec.parse(preset)
        sim = EdgeServerSimulator(
            make_policy("adapex", lib), workload,
            config=ServerConfig(sim_mode="auto"), seed=seed,
            faults=faults)
        assert fastsim.run_fast(sim) is None
        auto = run_metrics(lib, workload, ServerConfig(sim_mode="auto"),
                           seed, faults=faults)
        event = run_metrics(lib, workload, ServerConfig(sim_mode="event"),
                            seed, faults=faults)
        assert_identical(auto, event)

    def test_event_mode_forces_oracle(self, monkeypatch):
        """sim_mode='event' never consults the fast path."""
        def boom(sim):  # pragma: no cover - must not be called
            raise AssertionError("fast path used in event mode")
        monkeypatch.setattr(fastsim, "run_fast", boom)
        run_metrics(build_library(), WorkloadSpec(duration_s=2.0),
                    ServerConfig(sim_mode="event"), seed=0)

    def test_tick_tie_falls_back(self):
        """A completion landing exactly on a decision tick is
        scheduling-order ambiguous: run_fast must decline the whole
        run, and the dispatcher must still produce the oracle result."""
        lib = Library(metadata={"dataset": "tie"})
        # Every exit has the same 0.25 s latency, which divides the
        # decision interval exactly: a frame arriving at t=0.0 (forced
        # by the trace below) completes exactly on a tick boundary.
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.25, 0.25, 0.25)))

        class TieTrace:
            duration_s = 1.0
            nominal_ips = 20.0

            def arrival_times(self, seed):
                import numpy as np
                return np.array([0.0, 0.1])

        cfg_v = ServerConfig(sim_mode="auto", decision_interval_s=0.25)
        sim = EdgeServerSimulator(make_policy("adapex", lib), TieTrace(),
                                  config=cfg_v, seed=0)
        assert fastsim.run_fast(sim) is None
        auto = EdgeServerSimulator(
            make_policy("adapex", lib), TieTrace(),
            config=ServerConfig(sim_mode="auto",
                                decision_interval_s=0.25), seed=0).run()
        event = EdgeServerSimulator(
            make_policy("adapex", lib), TieTrace(),
            config=ServerConfig(sim_mode="event",
                                decision_interval_s=0.25), seed=0).run()
        assert_identical(auto, event)


class TestChaos:
    def test_heavy_fault_campaign_matches(self):
        """End-to-end chaos: a --faults heavy campaign produces the same
        aggregates whatever sim_mode asks for (faults always take the
        event path, so every mode is the oracle)."""
        lib = build_library()
        faults = FaultSpec.parse("heavy")
        results = {}
        for mode in SIM_MODES:
            agg, runs = simulate_policy(
                make_policy("adapex", lib), runs=3,
                workload=WorkloadSpec(num_cameras=4, ips_per_camera=40.0,
                                      duration_s=5.0),
                config=ServerConfig(sim_mode=mode), base_seed=1,
                faults=faults, fault_seed=7)
            results[mode] = (dataclasses.asdict(agg),
                             [dataclasses.asdict(r) for r in runs])
        assert results["auto"] == results["event"]


class TestConfig:
    def test_sim_mode_validation(self):
        with pytest.raises(ValueError, match="sim_mode"):
            ServerConfig(sim_mode="warp")

    def test_sim_modes_exported(self):
        assert SIM_MODES == ("auto", "event")
