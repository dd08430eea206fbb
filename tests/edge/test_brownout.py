"""Degradation-ladder (brownout) suite: config validation, rung
stepping, bottom-rung shedding, select_at floor queries, and the
event-loop/vectorized bit-identity contract with the ladder armed."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import ServerConfig, WorkloadSpec
from repro.edge.server import EdgeServerSimulator
from repro.runtime import make_policy
from repro.runtime.manager import RuntimeManager, SelectionPolicy

from tests.edge.test_fastsim import assert_identical, build_library
from tests.runtime.oracles import IndexOnlyManager


def brownout_config(levels=(0.02, 0.05), **kw):
    defaults = dict(queue_capacity=16, decision_interval_s=0.5,
                    brownout_levels=levels, brownout_high=0.6,
                    brownout_low=0.2)
    defaults.update(kw)
    return ServerConfig(**defaults)


def overload_workload(duration=8.0, ips=3000.0):
    """Far past any entry's serving capacity: the ladder must engage."""
    return WorkloadSpec(num_cameras=4, ips_per_camera=ips / 4,
                        duration_s=duration)


def run(lib, workload, config, seed=0, policy=None):
    sim = EdgeServerSimulator(policy or make_policy("adapex", lib),
                              workload, config=config, seed=seed)
    return sim.run()


class TestBrownoutConfig:
    def test_defaults_keep_brownout_off(self):
        cfg = ServerConfig()
        assert not cfg.brownout
        assert cfg.brownout_levels == ()
        assert cfg.shed_queue_len == cfg.queue_capacity

    def test_levels_must_be_positive_and_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ServerConfig(brownout_levels=(0.05, 0.02))
        with pytest.raises(ValueError, match="positive"):
            ServerConfig(brownout_levels=(0.0, 0.05))

    def test_band_validation(self):
        with pytest.raises(ValueError, match="brownout_low"):
            ServerConfig(brownout_levels=(0.02,), brownout_low=0.9,
                         brownout_high=0.5)
        with pytest.raises(ValueError, match="shed"):
            ServerConfig(brownout_levels=(0.02,),
                         brownout_shed_occupancy=0.0)

    def test_shed_queue_len_scales_with_occupancy(self):
        cfg = ServerConfig(queue_capacity=20, brownout_levels=(0.02,),
                           brownout_shed_occupancy=0.5)
        assert cfg.shed_queue_len == 10
        full = ServerConfig(queue_capacity=20, brownout_levels=(0.02,))
        assert full.shed_queue_len == 20


class TestLadderBehaviour:
    def test_overload_steps_the_ladder_down(self):
        lib = build_library()
        m = run(lib, overload_workload(), brownout_config())
        assert m.brownout_steps > 0
        assert m.brownout_time_s > 0.0
        assert m.brownout_time_s <= overload_workload().duration_s + 1e-9

    def test_bottom_rung_sheds_instead_of_losing(self):
        lib = build_library()
        cfg = brownout_config(brownout_shed_occupancy=0.5)
        m = run(lib, overload_workload(), cfg)
        assert m.shed > 0
        # Shed frames are a terminal state: the unserved ledger and the
        # conservation bound both account for them.
        assert m.unserved >= m.shed
        assert m.processed + m.lost + m.dropped + m.failed + m.shed \
            <= m.total_requests

    def test_brownout_trades_accuracy_for_throughput(self):
        lib = build_library()
        wl = overload_workload()
        plain = run(lib, wl, brownout_config(levels=()))
        browned = run(lib, wl, brownout_config(levels=(0.04, 0.10)))
        # The ladder swaps to faster, less accurate entries under
        # pressure: more frames served, no higher accuracy.
        assert browned.processed >= plain.processed
        assert browned.accuracy <= plain.accuracy + 1e-9
        assert plain.shed == plain.brownout_steps == 0

    def test_calm_workload_never_browns_out(self):
        lib = build_library()
        wl = WorkloadSpec(num_cameras=2, ips_per_camera=40.0,
                          duration_s=6.0)
        m = run(lib, wl, brownout_config())
        assert m.brownout_steps == 0
        assert m.shed == 0
        assert m.brownout_time_s == 0.0

    def test_empty_levels_is_byte_identical_to_no_brownout(self):
        lib = build_library()
        wl = overload_workload()
        base = run(lib, wl, ServerConfig(queue_capacity=16,
                                         decision_interval_s=0.5))
        off = run(lib, wl, brownout_config(levels=()))
        assert_identical(base, off)


class TestEngineBitIdentity:
    @given(ips=st.floats(200.0, 4000.0), seed=st.integers(0, 5),
           capacity=st.integers(4, 32),
           shed_occ=st.sampled_from([0.5, 0.75, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_brownout_runs_identical_across_engines(self, ips, seed,
                                                    capacity, shed_occ):
        lib = build_library()
        wl = WorkloadSpec(num_cameras=4, ips_per_camera=ips / 4,
                          duration_s=5.0)
        results = []
        for mode in ("event", "auto"):
            cfg = brownout_config(queue_capacity=capacity,
                                  brownout_shed_occupancy=shed_occ,
                                  sim_mode=mode, record_trace=True)
            results.append(run(lib, wl, cfg, seed=seed))
        assert_identical(results[0], results[1])

    def test_batched_engine_matches_too(self):
        lib = build_library()
        wl = overload_workload()
        results = []
        for mode in ("event", "auto"):
            cfg = brownout_config(sim_mode=mode, record_trace=True,
                                  batch_window_s=0.01,
                                  dispatch_overhead_s=0.002)
            results.append(run(lib, wl, cfg))
        assert_identical(results[0], results[1])


class TestSelectAt:
    def test_primary_floor_delegates_to_select(self):
        lib = build_library()
        mgr = make_policy("adapex", lib)
        for ips in (0.0, 200.0, 700.0, 1500.0):
            assert mgr.select_at(mgr.min_accuracy, ips) \
                == mgr.select(ips)

    def test_degraded_floor_matches_a_manager_at_that_threshold(self):
        lib = build_library()
        mgr = make_policy("adapex", lib)
        delta = 0.05
        floor = mgr.min_accuracy - delta
        ref = RuntimeManager(lib, SelectionPolicy(
            accuracy_loss_threshold=mgr.policy.accuracy_loss_threshold
            + delta))
        for ips in (0.0, 200.0, 700.0, 1500.0, 3000.0):
            got = mgr.select_at(floor, ips)
            want = ref.select(ips)
            assert got.accelerator == want.accelerator
            assert got.accuracy >= floor

    def test_table_lookup_at_agrees_with_index_path(self):
        lib = build_library()
        delta = 0.05
        fast = make_policy("adapex", lib)
        fast.compile_policy_table(
            extra_accuracy_levels=(fast.min_accuracy - delta,))
        slow = IndexOnlyManager(fast.library)
        floor = fast.min_accuracy - delta
        for ips in (0.0, 150.0, 420.0, 900.0, 1500.0, 2500.0):
            assert fast.select_at(floor, ips) == slow.select_at(floor, ips)

    def test_never_selects_below_the_floor(self):
        lib = build_library()
        mgr = make_policy("adapex", lib)
        for delta in (0.02, 0.05, 0.10):
            floor = mgr.min_accuracy - delta
            for ips in (0.0, 500.0, 1200.0, 2600.0):
                assert mgr.select_at(floor, ips).accuracy >= floor

    def test_select_at_rejects_negative_workload(self):
        lib = build_library()
        mgr = make_policy("adapex", lib)
        with pytest.raises(ValueError):
            mgr.select_at(mgr.min_accuracy - 0.02, -1.0)

    def test_selection_is_stateless_across_floors(self):
        # Interleaved floor queries must not perturb each other or the
        # shared policy state (the worker-invariance prerequisite).
        lib = build_library()
        mgr = make_policy("adapex", lib)
        lo = mgr.min_accuracy - 0.05
        a1 = mgr.select(700.0)
        b1 = mgr.select_at(lo, 700.0)
        a2 = mgr.select(700.0)
        b2 = mgr.select_at(lo, 700.0)
        assert a1 == a2 and b1 == b2
        assert dataclasses.asdict(mgr.policy) \
            == dataclasses.asdict(mgr.policy)
