"""Equivalence suite for the vectorized serving fast path.

``repro.edge.fastsim`` promises **bit-identical** ``RunMetrics``
(including per-tick traces) to the discrete-event oracle, with a
whole-run fallback whenever it cannot prove equivalence. These tests
pin that contract: hypothesis drives random workloads, queue
capacities, decision intervals and policies through both engines and
compares every field exactly; generated fault campaigns must either be
declined or match the oracle too; and a chaos case checks the
dispatcher end-to-end under the heavy fault preset.
"""

from __future__ import annotations

import dataclasses
from math import nextafter

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
from repro.edge import fastsim, server
from repro.edge.server import EdgeServerSimulator
from repro.runtime import PartialReconfigModel, WorkloadMonitor, make_policy
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
        window=st.floats(0.05, 5.0, allow_nan=False),
        offset=st.sampled_from([0.0, 0.137, 0.5]),
    )
    def test_random_conditions(self, workload, seed, capacity, interval,
                               window, offset):
        lib = build_library()
        cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                   monitor_window_s=window, decision_offset_s=offset,
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


probs = st.sampled_from([0.0, 0.1, 1.0])


@st.composite
def fault_specs(draw):
    """Fault campaigns: every probability at 0, small or 1, with jitter,
    retry budgets, backoff, spikes and active windows."""
    window = draw(st.sampled_from([(0.0, None), (1.0, None), (0.0, 2.5),
                                   (1.0, 2.5)]))
    return FaultSpec(
        reconfig_failure_prob=draw(probs),
        reconfig_jitter=draw(st.sampled_from([0.0, 0.25, 0.5])),
        inference_error_prob=draw(probs),
        drop_prob=draw(probs),
        spike_prob=draw(probs),
        spike_factor=draw(st.sampled_from([2.0, 4.0])),
        spike_duration_s=draw(st.sampled_from([0.5, 2.0])),
        reconfig_retries=draw(st.integers(0, 3)),
        inference_retries=draw(st.integers(0, 3)),
        retry_backoff_s=draw(st.sampled_from([0.0, 0.01, 0.05])),
        active_from_s=window[0],
        active_until_s=window[1],
    )


class SwitchingTrace:
    """Poisson traffic alternating between a low and a high rate every
    ``period`` seconds, so reconfiguring policies swap at most ticks and
    the queue fills and drains."""

    def __init__(self, low, high, period, duration_s):
        self.low, self.high, self.period = low, high, period
        self.duration_s = duration_s
        self.nominal_ips = (low + high) / 2

    def arrival_times(self, seed):
        rng = np.random.default_rng(seed)
        chunks, t, k = [], 0.0, 0
        while t < self.duration_s:
            t1 = min(t + self.period, self.duration_s)
            rate = self.high if k % 2 else self.low
            chunks.append(rng.uniform(t, t1, rng.poisson(rate * (t1 - t))))
            t, k = t1, k + 1
        return np.sort(np.concatenate(chunks))


class TestFaultCampaigns:
    """Unbatched fault campaigns run on the fast path and match the
    oracle field for field; batched ones are declined."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=fault_specs(),
        policy=st.sampled_from(["adapex", "pr-only", "ct-only", "finn"]),
        brownout=st.booleans(),
        partial=st.booleans(),
        offset=st.sampled_from([0.0, 0.137]),
        low=st.floats(100.0, 400.0, allow_nan=False),
        high=st.floats(700.0, 1400.0, allow_nan=False),
        period=st.sampled_from([0.5, 1.0, 1.5]),
        duration=st.floats(2.0, 6.0, allow_nan=False),
        capacity=st.sampled_from([1, 4, 32]),
        interval=st.sampled_from([0.3, 1.0]),
        seed=st.integers(0, 2**20),
        fault_seed=st.integers(0, 100),
    )
    def test_event_vs_fast(self, spec, policy, brownout, partial, offset,
                           low, high, period, duration, capacity, interval,
                           seed, fault_seed):
        cfg = ServerConfig(
            queue_capacity=capacity, decision_interval_s=interval,
            decision_offset_s=offset,
            brownout_levels=(0.02, 0.05) if brownout else (),
            partial_reconfig=PartialReconfigModel() if partial else None)
        trace = SwitchingTrace(low, high, period, duration)

        def sim():
            return EdgeServerSimulator(
                make_policy(policy, build_library()), trace, config=cfg,
                seed=seed, faults=spec, fault_seed=fault_seed)

        fast = fastsim.run_fast(sim())
        if fast is not None:
            assert_identical(sim()._run_event(), fast)

    def test_table_one_heavy_campaign_uses_fast_path(self):
        """Table I traffic under the heavy preset: the fast path serves
        at least 9 of seeds 0-9 (and matches the oracle on two)."""
        faults = FaultSpec.parse("heavy")
        policy = make_policy("adapex", build_library())
        served = 0
        for seed in range(10):
            sim = EdgeServerSimulator(policy, WorkloadSpec(), seed=seed,
                                      faults=faults, fault_seed=5)
            fast = fastsim.run_fast(sim)
            if fast is not None:
                served += 1
                if seed < 2:
                    assert_identical(sim._run_event(), fast)
        assert served >= 9

    @settings(max_examples=10, deadline=None)
    @given(preset=st.sampled_from(["light", "heavy", "chaos"]),
           seed=st.integers(0, 1000))
    def test_faulted_runs_served_by_run_fast(self, preset, seed):
        """Preset campaigns are served by run_fast (not declined) and
        the dispatcher's result equals the event-loop oracle."""
        lib = build_library()
        workload = WorkloadSpec(num_cameras=3, ips_per_camera=30.0,
                                duration_s=4.0)
        faults = FaultSpec.parse(preset)
        sim = EdgeServerSimulator(
            make_policy("adapex", lib), workload,
            config=ServerConfig(sim_mode="auto"), seed=seed,
            faults=faults)
        fast = fastsim.run_fast(sim)
        assert fast is not None
        auto = run_metrics(lib, workload, ServerConfig(sim_mode="auto"),
                           seed, faults=faults)
        event = run_metrics(lib, workload, ServerConfig(sim_mode="event"),
                            seed, faults=faults)
        assert_identical(auto, event)
        assert_identical(fast, event)


class ScriptedPolicy:
    """Returns entries from a script, one per call: the deployment at
    t=0, then one per decision tick (the last entry repeats)."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def select(self, ips, current=None):
        entry = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        return entry


class FixedTrace:
    def __init__(self, times, duration_s):
        self.times = np.asarray(times, dtype=np.float64)
        self.duration_s = duration_s
        self.nominal_ips = 10.0

    def arrival_times(self, seed):
        return self.times.copy()


def slow_entry(rate, variant="ee"):
    """Every exit takes 50 ms, so event times are easy to place."""
    return _entry(rate=rate, ct=0.5, acc=0.9, ips=20.0, variant=variant,
                  exit_lats=(0.05, 0.05, 0.05))


class TestFaultEdgeCases:
    """Hand-placed event sequences for the fault states a generated
    campaign rarely makes observable in ``RunMetrics``."""

    A, B, C = slow_entry(0.0), slow_entry(0.5), \
        slow_entry(0.5, variant="backbone")

    def run_both(self, script, times, duration, spec, **knobs):
        def sim():
            return EdgeServerSimulator(
                ScriptedPolicy(script), FixedTrace(times, duration),
                config=ServerConfig(**knobs), seed=0, faults=spec)

        fast = fastsim.run_fast(sim())
        assert fast is not None
        event = sim()._run_event()
        assert_identical(event, fast)
        return fast

    def test_requeued_frame_blocked_by_swap_takes_a_slot(self):
        """A frame that fails while a swap is in progress waits at the
        head until the swap ends and fills one of two queue slots."""
        spec = FaultSpec(inference_error_prob=1.0, inference_retries=1)
        m = self.run_both([self.A, self.B], [0.98, 1.05, 1.06], 2.0,
                          spec, queue_capacity=2)
        assert (m.lost, m.failed, m.retries) == (1, 2, 2)

    def test_requeued_frame_at_horizon_is_lost(self):
        spec = FaultSpec(inference_error_prob=1.0, inference_retries=1)
        m = self.run_both([self.A, self.B], [0.98], 1.1, spec)
        assert (m.lost, m.failed, m.retries) == (1, 0, 1)

    @pytest.mark.parametrize("times, duration, knobs", [
        ([0.0, 0.05], 1.0, dict(queue_capacity=1)),
        # Frame 2's first service fails exactly at the third arrival,
        # after a tick at 1.0 moved to the bottom rung (one slot).
        ([0.96, 0.97, 0.96 + 0.05 + 0.05 + 0.05], 1.5,
         dict(queue_capacity=2, brownout_levels=(0.05,),
              brownout_high=0.5, brownout_shed_occupancy=0.5)),
    ], ids=["queue-full", "bottom-rung-shed"])
    def test_arrival_at_failed_completion_is_admitted_first(
            self, times, duration, knobs):
        """Arrival events fire before a completion at the same time, so
        the requeued frame does not count against this arrival's queue
        or shedding limit."""
        spec = FaultSpec(inference_error_prob=1.0, inference_retries=1)
        m = self.run_both([self.A], times, duration, spec, **knobs)
        assert (m.lost, m.shed, m.failed) == (0, 0, len(times))

    @pytest.mark.parametrize("spec", [None, FaultSpec()],
                             ids=["fault-free", "faulted"])
    def test_arrival_at_swap_end_starts_the_head(self, spec):
        """Two arrivals exactly when a swap ends: the first starts the
        queued head at once, so the second still finds a free slot."""
        end = 1.0 + 0.145
        m = self.run_both([self.A, self.B], [1.01, end, end], 2.0,
                          spec, queue_capacity=2)
        assert (m.lost, m.processed) == (0, 3)

    def test_swap_dead_time_only_extends(self):
        """Under faults a shorter partial swap started during a longer
        one does not shorten it (``reconfig_until = max(...)``): the
        frame waits for the first swap and is still in flight at the
        horizon."""
        m = self.run_both([self.A, self.B, self.C], [0.12], 0.2,
                          FaultSpec(), decision_interval_s=0.05,
                          partial_reconfig=PartialReconfigModel())
        assert (m.processed, m.reconfigurations) == (0, 2)

    def test_ticks_wait_for_a_pending_retry(self):
        """Ticks attempt no swap while a backoff retry is pending; the
        retry beyond the horizon never fires."""
        spec = FaultSpec(reconfig_failure_prob=1.0, reconfig_retries=2,
                         retry_backoff_s=0.25)
        m = self.run_both([self.A] * 4 + [self.B], [0.1, 1.3, 1.6], 2.0,
                          spec, decision_interval_s=0.25)
        assert (m.reconfig_failures, m.reconfig_retries) == (2, 2)

    def test_fault_window_is_half_open(self):
        """A completion exactly at ``active_until_s`` takes no
        inference decision."""
        spec = FaultSpec(inference_error_prob=1.0, inference_retries=0,
                         active_until_s=0.98 + 0.05)
        m = self.run_both([self.A], [0.98], 2.0, spec)
        assert (m.processed, m.failed) == (1, 0)

    def test_arrivals_past_horizon_take_no_drop_decision(self):
        m = self.run_both([self.A], [0.5, 2.5], 2.0,
                          FaultSpec(drop_prob=1.0))
        assert (m.total_requests, m.dropped) == (2, 1)

    def test_zero_backoff_retry_is_declined(self):
        """A zero backoff puts the retry on its own resume time, a tie
        the fast path declines."""
        spec = FaultSpec(reconfig_failure_prob=1.0, reconfig_retries=1,
                         retry_backoff_s=0.0)
        sim = EdgeServerSimulator(
            ScriptedPolicy([self.A, self.B]), FixedTrace([0.5], 2.0),
            seed=0, faults=spec)
        assert fastsim.run_fast(sim) is None


def tick_marks(offset, interval, duration):
    """Decision ticks as the event loop schedules them, then the
    horizon: where the monitor is read."""
    ticks, t = [], 0.0 + (offset + interval)
    while t <= duration:
        ticks.append(t)
        if not t + interval < duration:
            break
        t = t + interval
    return ticks + [duration]


@st.composite
def boundary_arrivals(draw, marks, window, span):
    """Sorted arrivals with duplicates and frames exactly at a tick, at
    ``tick - window`` (when that is not negative) and at the horizon,
    among free ones."""
    ticks = marks[:-1] or marks
    edges = [e for e in marks + [m - window for m in marks] if e >= 0.0]
    cutoffs = [t - window for t in ticks if t - window >= 0.0] or [0.0]
    placed = [draw(st.sampled_from(ticks)), draw(st.sampled_from(cutoffs)),
              marks[-1]]
    placed += draw(st.lists(st.sampled_from(edges), max_size=12))
    free = draw(st.lists(st.floats(0.0, span, allow_nan=False),
                         max_size=40))
    times = placed + free
    times += draw(st.lists(st.sampled_from(times), min_size=1,
                           max_size=10))  # duplicates
    return np.sort(np.asarray(times, dtype=np.float64))


class SpyMonitor(WorkloadMonitor):
    """Records every rate the event loop samples, by time."""

    seen: dict = {}

    def sampled_ips(self, now):
        ips = super().sampled_ips(now)
        SpyMonitor.seen[now] = ips
        return ips


class TestWindowCount:
    """``run_fast`` keeps no monitor: it counts each tick's window over
    the sorted arrivals. The count must give exactly the rate
    ``WorkloadMonitor.sampled_ips`` reports."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           window=st.floats(0.05, 5.0, allow_nan=False),
           interval=st.floats(0.1, 2.0, allow_nan=False),
           offset=st.sampled_from([0.0, 0.137, 0.5]),
           duration=st.floats(0.5, 8.0, allow_nan=False))
    def test_count_matches_monitor(self, data, window, interval, offset,
                                   duration):
        marks = tick_marks(offset, interval, duration)
        arrivals = data.draw(boundary_arrivals(marks, window,
                                               duration + 1.0))
        counts = fastsim._window_counts(arrivals, marks, window)
        monitor, fed = WorkloadMonitor(window_s=window), 0
        for mark, count in zip(marks, counts):
            # Fed as the event loop feeds it: what fired by the mark.
            hi = int(np.searchsorted(arrivals, mark, side="right"))
            monitor.observe_many(arrivals[fed:hi])
            fed = hi
            assert count / window == monitor.sampled_ips(mark)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           window=st.floats(0.05, 5.0, allow_nan=False),
           drop=st.sampled_from([0.1, 0.5, 1.0]),
           spike_duration=st.sampled_from([0.5, 2.0]),
           seed=st.integers(0, 2**20),
           fault_seed=st.integers(0, 100))
    def test_fault_campaign_counts_match_event_monitor(
            self, data, window, drop, spike_duration, seed, fault_seed):
        """Spike arrivals merged in and ingress drops taken out: the
        counts ``run_fast`` computes equal what the event loop's own
        monitor samples at every tick and at the horizon."""
        duration, interval = 4.0, 0.7
        marks = tick_marks(0.0, interval, duration)
        times = data.draw(boundary_arrivals(marks, window, duration + 0.5))
        spec = FaultSpec(spike_prob=1.0, spike_factor=4.0,
                         spike_duration_s=spike_duration, drop_prob=drop)
        sim = EdgeServerSimulator(
            make_policy("adapex", build_library()),
            FixedTrace(times, duration),
            config=ServerConfig(decision_interval_s=interval,
                                monitor_window_s=window),
            seed=seed, faults=spec, fault_seed=fault_seed)
        window_counts, calls = fastsim._window_counts, []

        def counted(arrivals, at, window_s):
            calls.append((list(at), window_counts(arrivals, at, window_s)))
            return calls[-1][1]

        SpyMonitor.seen = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fastsim, "_window_counts", counted)
            mp.setattr(server, "WorkloadMonitor", SpyMonitor)
            fast = fastsim.run_fast(sim)
            event = sim._run_event()
        (at, counts), = calls
        assert at == marks
        assert set(SpyMonitor.seen) == set(marks)
        for mark, count in zip(marks, counts):
            assert count / window == SpyMonitor.seen[mark]
        if fast is not None:
            assert_identical(event, fast)

    def test_fast_path_feeds_no_monitor(self, monkeypatch):
        def boom(*args):  # pragma: no cover - must not be called
            raise AssertionError("run_fast fed a WorkloadMonitor")
        monkeypatch.setattr(WorkloadMonitor, "observe_many", boom)
        monkeypatch.setattr(WorkloadMonitor, "record_arrival", boom)
        sim = EdgeServerSimulator(
            make_policy("adapex", build_library()),
            WorkloadSpec(num_cameras=4, duration_s=3.0), seed=1,
            faults=FaultSpec.parse("heavy"))
        assert fastsim.run_fast(sim) is not None

    @pytest.mark.parametrize("sim_mode", SIM_MODES)
    def test_bad_exit_rates_rejected_by_both_engines(self, sim_mode):
        """The per-entry exit tables keep ``choice``'s sum-to-one check."""
        bad = _entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                     rates=(0.3, 0.3, 0.3))
        sim = EdgeServerSimulator(
            ScriptedPolicy([bad]), FixedTrace([0.5, 1.5], 2.0),
            config=ServerConfig(sim_mode=sim_mode), seed=0)
        with pytest.raises(ValueError, match="do not sum to 1"):
            sim.run()


class TestFallback:
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
        aggregates whatever sim_mode asks for (``auto`` serves it on the
        fast path, ``event`` on the oracle)."""
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


class AlternatingPolicy:
    """Deploys ``a``, then swaps between ``b`` and ``a`` at every tick,
    so every segment but the first starts a swap window."""

    name = "alternating"

    def __init__(self, a, b):
        self.entries, self.calls = (a, b), 0

    def select(self, ips, current=None):
        self.calls += 1
        return self.entries[(self.calls - 1) % 2]


# Exit latencies and arrivals on a 1/1024 s grid: every completion of a
# service that an arrival started lands on that grid, exactly, so
# arrivals tie with completions. Ticks (offset 0.137, interval 1/sqrt(2))
# and the swap ends after them stay off it.
_GRID = 1024
_DYADIC_A = _entry(rate=0.0, ct=0.5, acc=0.9, ips=150.0,
                   exit_lats=(4 / _GRID, 8 / _GRID, 12 / _GRID),
                   rates=(0.5, 0.3, 0.2))
_DYADIC_B = _entry(rate=0.5, ct=0.5, acc=0.8, ips=200.0,
                   exit_lats=(2 / _GRID, 6 / _GRID, 16 / _GRID),
                   rates=(0.4, 0.4, 0.2))
_INTERVAL = 0.7071067811865476
_LOOP_KINDS = {
    "plain": ({}, None),
    "batched": (dict(batch_window_s=3 / _GRID,
                     dispatch_overhead_s=0.5 / _GRID), None),
    "faulted": ({}, FaultSpec(inference_error_prob=0.3,
                              inference_retries=1)),
}


class TestLoopSplit:
    """Each kind of run has its own serving loop: plain (unbatched and
    fault-free), micro-batched and faulted. Generated runs of each kind
    match the event loop at the edges that split meets: swap windows
    from none to longer than a decision interval, with arrivals before,
    at and after their end; one- and two-frame queues; a bottom rung
    that sheds every arrival finding a frame waiting; and arrivals tied
    with a completion, a tick and the horizon."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_LOOP_KINDS)),
        swap=st.sampled_from([0.0, 1e-4, 0.145, 1.5 * _INTERVAL]),
        capacity=st.sampled_from([1, 2]),
        shed=st.booleans(),
        rate=st.sampled_from([5.0, 40.0, 300.0]),
        planted=st.lists(st.sampled_from(["tick", "before", "end",
                                          "after"]), max_size=4),
        seed=st.integers(0, 2**20),
    )
    def test_event_vs_fast(self, kind, swap, capacity, shed, rate,
                           planted, seed):
        knobs, faults = _LOOP_KINDS[kind]
        if shed:
            # One waiting frame puts the server on the bottom rung, and
            # there it sheds every arrival that finds one waiting.
            knobs = dict(knobs, brownout_levels=(0.05,), brownout_high=0.5,
                         brownout_low=0.25, brownout_shed_occupancy=0.01)
        cfg = dict(queue_capacity=capacity, reconfig_time_s=swap,
                   decision_interval_s=_INTERVAL, decision_offset_s=0.137,
                   **knobs)
        duration = 4.0
        rng = np.random.default_rng(seed)
        times = np.round(rng.uniform(0.0, duration,
                                     rng.poisson(rate * duration)) * _GRID)
        times = list(times / _GRID) + [duration]
        # Frames at each tick and around each swap end (the event loop's
        # ``tick + dead``; repeats tie with each other), and at the
        # horizon.
        tick = 0.0 + (0.137 + _INTERVAL)
        while tick < duration:
            end = tick + swap
            at = {"tick": tick, "before": nextafter(end, 0.0), "end": end,
                  "after": nextafter(end, 9.0)}
            times += [at[name] for name in planted]
            tick = tick + _INTERVAL
        trace = FixedTrace(np.sort(times), duration)

        def sim(mode):
            return EdgeServerSimulator(
                AlternatingPolicy(_DYADIC_A, _DYADIC_B), trace,
                config=ServerConfig(sim_mode=mode, **cfg), seed=seed,
                faults=faults, fault_seed=seed % 97)

        fast = fastsim.run_fast(sim("auto"))
        assert fast is not None
        assert_identical(sim("event").run(), fast)
        assert fast.reconfigurations == 5
        if not shed:
            assert fast.shed == 0

    @pytest.mark.parametrize("kind", sorted(_LOOP_KINDS))
    def test_arrival_tied_with_a_chained_completion(self, kind):
        """Frames at 0, 1/1024 and 2/1024 fill the two slots behind the
        first service; the second service completes exactly when two
        more frames arrive. Arrival events fire before that completion,
        so the first of them still finds one frame waiting and the
        second finds the queue full."""
        knobs = {"plain": {}, "faulted": {},
                 "batched": dict(dispatch_overhead_s=0.5 / _GRID)}[kind]
        faults = FaultSpec() if kind == "faulted" else None
        service = 4 / _GRID
        a = _entry(rate=0.0, ct=0.5, acc=0.9, ips=150.0,
                   exit_lats=(service,) * 3)
        cost = knobs.get("dispatch_overhead_s", 0.0) + service
        second = (0.0 + cost) + cost  # the event loop's float ops
        times = [0.0, 1 / _GRID, 2 / _GRID, second, second]

        def sim(mode):
            return EdgeServerSimulator(
                ScriptedPolicy([a]), FixedTrace(times, 1.0),
                config=ServerConfig(sim_mode=mode, queue_capacity=2,
                                    **knobs),
                seed=0, faults=faults)

        fast = fastsim.run_fast(sim("auto"))
        assert fast is not None
        assert_identical(sim("event").run(), fast)
        assert (fast.lost, fast.processed) == (1, 4)
