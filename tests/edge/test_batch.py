"""Micro-batched admission tests.

``ServerConfig.batch_window_s`` / ``dispatch_overhead_s`` switch both
simulation engines onto the batched admission path: frames arriving
within one window of the queue head share a single plan invocation, the
dispatch overhead is amortized over the batch, and the two engines stay
**bit-identical**. With both knobs at their 0 defaults the legacy
one-frame path must be untouched, bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import ServerConfig, WorkloadSpec, fastsim, simulate_policy
from repro.edge.server import EdgeServerSimulator
from repro.runtime import PartialReconfigModel, make_policy
from repro.runtime.faults import FaultSpec

from tests.edge.test_fastsim import assert_identical, build_library


def run_once(mode, seed=0, workload=None, faults=None, **knobs):
    lib = build_library()
    cfg = ServerConfig(sim_mode=mode, **knobs)
    workload = workload or WorkloadSpec(
        num_cameras=5, ips_per_camera=50.0, duration_s=6.0,
        deviation=0.3, deviation_interval_s=1.5)
    sim = EdgeServerSimulator(make_policy("adapex", lib), workload,
                              config=cfg, seed=seed, faults=faults)
    return sim.run()


class TestEnginesBitIdentical:
    @given(seed=st.integers(0, 1_000_000),
           window_ms=st.sampled_from([1.0, 20.0, 80.0]),
           overhead_ms=st.sampled_from([0.0, 0.5, 3.0]),
           cameras=st.integers(1, 8),
           ips=st.floats(5.0, 120.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_batched_event_vs_vector(self, seed, window_ms, overhead_ms,
                                     cameras, ips):
        workload = WorkloadSpec(num_cameras=cameras, ips_per_camera=ips,
                                duration_s=4.0, deviation=0.2,
                                deviation_interval_s=1.0)
        knobs = dict(batch_window_s=window_ms / 1e3,
                     dispatch_overhead_s=overhead_ms / 1e3)
        event = run_once("event", seed=seed, workload=workload, **knobs)
        fast = run_once("auto", seed=seed, workload=workload, **knobs)
        assert_identical(event, fast)

    def test_overhead_only_batches(self):
        """dispatch_overhead alone (window 0) batches one frame at a
        time but still goes through the batched path in both engines."""
        event = run_once("event", dispatch_overhead_s=0.002)
        fast = run_once("auto", dispatch_overhead_s=0.002)
        assert_identical(event, fast)
        assert event.batches == event.processed  # k=1 per dispatch

    def test_partial_reconfig_event_vs_vector(self):
        pr = PartialReconfigModel()
        event = run_once("event", partial_reconfig=pr)
        fast = run_once("auto", partial_reconfig=pr)
        assert_identical(event, fast)

    def test_batching_plus_partial_reconfig(self):
        knobs = dict(batch_window_s=0.03, dispatch_overhead_s=0.001,
                     partial_reconfig=PartialReconfigModel())
        assert_identical(run_once("event", **knobs),
                         run_once("auto", **knobs))


class TestLegacyPathUntouched:
    def test_defaults_off_is_bit_identical_to_legacy(self):
        """Explicit zero knobs must not perturb the historical path."""
        plain = run_once("event")
        explicit = run_once("event", batch_window_s=0.0,
                            dispatch_overhead_s=0.0)
        assert_identical(plain, explicit)
        assert plain.batches == 0  # legacy path never dispatches batches

    def test_batching_changes_accounting(self):
        plain = run_once("event")
        batched = run_once("event", batch_window_s=0.05,
                           dispatch_overhead_s=0.002)
        assert batched.batches > 0
        assert dataclasses.asdict(plain) != dataclasses.asdict(batched)


class TestAccounting:
    def test_overhead_charged_per_frame_share(self):
        """At k=1 (window 0) each frame's latency is its service time
        plus the whole overhead; with an uncongested workload the run
        averages differ by exactly the overhead."""
        workload = WorkloadSpec(num_cameras=1, ips_per_camera=3.0,
                                duration_s=5.0, deviation=0.0)
        plain = run_once("event", workload=workload)
        loaded = run_once("event", workload=workload,
                          dispatch_overhead_s=0.001)
        assert loaded.processed == plain.processed
        assert loaded.avg_latency_s == pytest.approx(
            plain.avg_latency_s + 0.001)

    def test_window_merges_frames(self):
        """A wide window under bursty arrivals dispatches fewer batches
        than frames, and the overhead share shrinks accordingly."""
        workload = WorkloadSpec(num_cameras=8, ips_per_camera=40.0,
                                duration_s=5.0, deviation=0.2,
                                deviation_interval_s=1.0)
        merged = run_once("event", workload=workload,
                          batch_window_s=0.1,
                          dispatch_overhead_s=0.002)
        assert 0 < merged.batches < merged.processed

    def test_batches_counter_consistent_across_engines(self):
        knobs = dict(batch_window_s=0.04, dispatch_overhead_s=0.001)
        event = run_once("event", **knobs)
        fast = run_once("auto", **knobs)
        assert event.batches == fast.batches > 0


class TestFaultsRouteToEventLoop:
    def test_batched_fault_campaign_runs(self):
        """Batched fault campaigns stay on the event engine (run_fast
        declines them); the batched event path must handle retries
        (failed frames requeue in order)."""
        faults = FaultSpec(inference_error_prob=0.05,
                           inference_retries=2)
        for seed in range(3):
            sim = EdgeServerSimulator(
                make_policy("adapex", build_library()), WorkloadSpec(
                    num_cameras=5, ips_per_camera=50.0, duration_s=6.0),
                config=ServerConfig(batch_window_s=0.03,
                                    dispatch_overhead_s=0.001),
                seed=seed, faults=faults)
            assert fastsim.run_fast(sim) is None
            m = run_once("auto", seed=seed, faults=faults,
                         batch_window_s=0.03,
                         dispatch_overhead_s=0.001)
            assert m.processed > 0
            assert m.batches > 0
            assert m.total_requests >= m.processed + m.lost


class TestConfigValidation:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(batch_window_s=-0.01)
        with pytest.raises(ValueError):
            ServerConfig(dispatch_overhead_s=-1e-9)

    def test_batching_property(self):
        assert not ServerConfig().batching
        assert ServerConfig(batch_window_s=0.01).batching
        assert ServerConfig(dispatch_overhead_s=0.001).batching

    def test_simulate_policy_carries_batches(self):
        lib = build_library()
        cfg = ServerConfig(batch_window_s=0.02,
                           dispatch_overhead_s=0.001)
        workload = WorkloadSpec(num_cameras=4, ips_per_camera=40.0,
                                duration_s=3.0)
        _, runs = simulate_policy(make_policy("adapex", lib), runs=3,
                                  workload=workload, config=cfg,
                                  base_seed=2)
        assert all(r.batches > 0 for r in runs)
