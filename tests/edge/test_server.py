"""Edge-server DES tests: loss under overload, adaptation effects,
reconfiguration accounting."""

import numpy as np
import pytest

from repro.edge import EdgeServerSimulator, ServerConfig, WorkloadSpec, simulate_policy
from repro.runtime import Library, RuntimeManager
from tests.conftest import make_entry


def small_workload(ips=40.0, cameras=4, duration=6.0):
    return WorkloadSpec(num_cameras=cameras, ips_per_camera=ips / cameras,
                        duration_s=duration, deviation=0.2,
                        deviation_interval_s=2.0)


def single_entry_library(ips, acc=0.9, exit_lats=None):
    lib = Library()
    exit_lats = exit_lats or (1.0 / ips,) * 3
    lib.add(make_entry(rate=0.0, ct=0.5, acc=acc, ips=ips,
                       exit_lats=exit_lats, rates=(0.0, 0.0, 1.0)))
    return lib


class StaticPolicy:
    name = "static"

    def __init__(self, entry):
        self.entry = entry

    def select(self, workload_ips, current=None):
        return self.entry

    def requires_reconfiguration(self, current, selected):
        return current is None


class TestOverloadBehaviour:
    def test_underload_no_loss(self):
        lib = single_entry_library(ips=200.0)
        sim = EdgeServerSimulator(StaticPolicy(lib.entries[0]),
                                  workload=small_workload(ips=40.0), seed=0)
        result = sim.run()
        assert result.inference_loss < 0.02
        assert result.processed > 0

    def test_overload_loss_matches_capacity_ratio(self):
        """Sustained lambda > mu must lose ~ 1 - mu/lambda of requests."""
        mu = 20.0
        lam = 40.0
        lib = single_entry_library(ips=mu)
        sim = EdgeServerSimulator(
            StaticPolicy(lib.entries[0]),
            workload=small_workload(ips=lam, duration=10.0),
            config=ServerConfig(queue_capacity=4), seed=1)
        result = sim.run()
        expected = 1.0 - mu / lam
        assert abs(result.inference_loss - expected) < 0.12

    def test_latency_is_service_latency(self):
        lib = single_entry_library(ips=100.0, exit_lats=(0.01, 0.01, 0.01))
        sim = EdgeServerSimulator(StaticPolicy(lib.entries[0]),
                                  workload=small_workload(ips=20.0), seed=2)
        result = sim.run()
        assert result.avg_latency_s == pytest.approx(0.01)

    def test_accuracy_sampling_converges(self):
        lib = single_entry_library(ips=500.0, acc=0.75)
        sim = EdgeServerSimulator(StaticPolicy(lib.entries[0]),
                                  workload=small_workload(ips=100.0,
                                                          duration=10.0),
                                  seed=3)
        result = sim.run()
        assert abs(result.accuracy - 0.75) < 0.05

    def test_energy_positive(self):
        lib = single_entry_library(ips=100.0)
        sim = EdgeServerSimulator(StaticPolicy(lib.entries[0]),
                                  workload=small_workload(), seed=4)
        result = sim.run()
        assert result.energy_j > 0
        assert 0.5 < result.avg_power_w < 2.0


class TestAdaptation:
    def _adaptive_library(self):
        lib = Library()
        lib.add(make_entry(rate=0.0, ct=0.9, acc=0.90, ips=30.0,
                           exit_lats=(1 / 30,) * 3, rates=(0, 0, 1.0)))
        lib.add(make_entry(rate=0.8, ct=0.1, acc=0.82, ips=200.0,
                           exit_lats=(1 / 200,) * 3, rates=(1.0, 0, 0)))
        return lib

    def test_manager_switches_under_load(self):
        lib = self._adaptive_library()
        mgr = RuntimeManager(lib)
        sim = EdgeServerSimulator(
            mgr, workload=small_workload(ips=100.0, duration=8.0), seed=5)
        result = sim.run()
        # The manager must adopt the fast accelerator and keep loss low.
        assert result.inference_loss < 0.2
        rates_used = set(result.trace["pruning_rate"])
        assert 0.8 in rates_used

    def test_reconfigurations_counted(self):
        # The slow, accurate entry covers the nominal load (so it is the
        # initial deployment) but workload bursts exceed it, forcing a
        # runtime switch to the pruned accelerator.
        lib = Library()
        lib.add(make_entry(rate=0.0, ct=0.9, acc=0.90, ips=101.0,
                           exit_lats=(1 / 101,) * 3, rates=(0, 0, 1.0)))
        lib.add(make_entry(rate=0.8, ct=0.1, acc=0.82, ips=300.0,
                           exit_lats=(1 / 300,) * 3, rates=(1.0, 0, 0)))
        mgr = RuntimeManager(lib)
        sim = EdgeServerSimulator(
            mgr, workload=small_workload(ips=100.0, duration=8.0), seed=6)
        result = sim.run()
        assert result.reconfigurations >= 1
        assert result.reconfig_dead_time_s == pytest.approx(
            0.145 * result.reconfigurations)

    def test_static_policy_loses_more(self):
        lib = self._adaptive_library()
        slow = StaticPolicy(lib.entries[0])
        mgr = RuntimeManager(lib)
        workload = small_workload(ips=100.0, duration=8.0)
        loss_static = EdgeServerSimulator(slow, workload=workload,
                                          seed=7).run().inference_loss
        loss_adaptive = EdgeServerSimulator(mgr, workload=workload,
                                            seed=7).run().inference_loss
        assert loss_adaptive < loss_static

    def test_trace_recorded(self):
        lib = self._adaptive_library()
        sim = EdgeServerSimulator(RuntimeManager(lib),
                                  workload=small_workload(duration=5.0),
                                  seed=8)
        result = sim.run()
        assert len(result.trace["t"]) >= 4
        assert len(result.trace["t"]) == len(result.trace["workload_ips"])

    def test_trace_disabled(self):
        lib = self._adaptive_library()
        sim = EdgeServerSimulator(
            RuntimeManager(lib), workload=small_workload(duration=5.0),
            config=ServerConfig(record_trace=False), seed=9)
        assert sim.run().trace == {}


class TestSimulatePolicy:
    def test_aggregates_multiple_runs(self):
        lib = single_entry_library(ips=100.0)
        agg, runs = simulate_policy(StaticPolicy(lib.entries[0]), runs=3,
                                    workload=small_workload(), base_seed=0)
        assert agg.runs == 3
        assert len(runs) == 3
        # Different seeds -> different workload realizations.
        totals = {r.total_requests for r in runs}
        assert len(totals) > 1

    def test_run_count_validation(self):
        lib = single_entry_library(ips=100.0)
        with pytest.raises(ValueError):
            simulate_policy(StaticPolicy(lib.entries[0]), runs=0)

    def test_deterministic_given_seed(self):
        lib = single_entry_library(ips=60.0)
        w = small_workload(ips=80.0)
        a = EdgeServerSimulator(StaticPolicy(lib.entries[0]), workload=w,
                                seed=11).run()
        b = EdgeServerSimulator(StaticPolicy(lib.entries[0]), workload=w,
                                seed=11).run()
        assert a.processed == b.processed
        assert a.lost == b.lost
        assert a.energy_j == pytest.approx(b.energy_j)


class TestParallelSimulation:
    def _matches_serial(self, policy, runs=4, base_seed=5):
        w = small_workload(ips=60.0)
        agg_s, runs_s = simulate_policy(policy, runs=runs, workload=w,
                                        base_seed=base_seed)
        agg_p, runs_p = simulate_policy(policy, runs=runs, workload=w,
                                        base_seed=base_seed, parallel=2)
        # Bit-for-bit: every per-run metric and the aggregate.
        assert agg_s == agg_p
        for a, b in zip(runs_s, runs_p):
            assert a.processed == b.processed
            assert a.lost == b.lost
            assert a.total_requests == b.total_requests
            assert a.accuracy == b.accuracy
            assert a.avg_latency_s == b.avg_latency_s
            assert a.energy_j == b.energy_j
            assert a.reconfigurations == b.reconfigurations
            assert a.trace == b.trace

    def test_static_policy_parallel_matches_serial(self):
        lib = single_entry_library(ips=100.0)
        self._matches_serial(StaticPolicy(lib.entries[0]))

    def test_manager_parallel_matches_serial(self):
        lib = Library()
        lib.add(make_entry(rate=0.0, ct=0.9, acc=0.90, ips=40.0,
                           exit_lats=(1 / 40,) * 3, rates=(0, 0, 1.0)))
        lib.add(make_entry(rate=0.8, ct=0.1, acc=0.82, ips=200.0,
                           exit_lats=(1 / 200,) * 3, rates=(1.0, 0, 0)))
        self._matches_serial(RuntimeManager(lib))

    def test_parallel_true_means_cpu_count(self):
        lib = single_entry_library(ips=100.0)
        agg, runs = simulate_policy(StaticPolicy(lib.entries[0]), runs=2,
                                    workload=small_workload(),
                                    parallel=True)
        assert agg.runs == 2 and len(runs) == 2

    def test_progress_reported(self):
        lib = single_entry_library(ips=100.0)
        messages = []
        simulate_policy(StaticPolicy(lib.entries[0]), runs=3,
                        workload=small_workload(), parallel=2,
                        progress=messages.append)
        assert len(messages) == 3

    def test_progress_reported_serial(self):
        lib = single_entry_library(ips=100.0)
        messages = []
        simulate_policy(StaticPolicy(lib.entries[0]), runs=3,
                        workload=small_workload(),
                        progress=messages.append)
        assert len(messages) == 3


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestConfigValidation:
    """Non-finite timings fail closed, naming the field."""

    @pytest.mark.parametrize("field", [
        "decision_interval_s", "monitor_window_s", "decision_offset_s",
        "reconfig_time_s", "batch_window_s", "dispatch_overhead_s"])
    def test_non_finite_field_rejected(self, field):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=field):
                ServerConfig(**{field: value})
