"""Fault-injection framework: spec parsing, plan determinism,
degradation helpers, and controller failure semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    FAULT_PRESETS,
    AcceleratorId,
    FaultPlan,
    FaultSpec,
    Library,
    ReconfigurationController,
    RuntimeManager,
)
from tests.conftest import make_entry


def aid(rate):
    return AcceleratorId(pruning_rate=rate, pruned_exits=True, variant="ee")


class TestFaultSpec:
    def test_defaults_are_fault_free(self):
        assert not FaultSpec().any_faults

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultSpec(reconfig_jitter=1.0)
        with pytest.raises(ValueError):
            FaultSpec(spike_factor=0.5)
        with pytest.raises(ValueError):
            FaultSpec(reconfig_retries=-1)
        with pytest.raises(ValueError):
            FaultSpec(active_from_s=5.0, active_until_s=5.0)

    def test_parse_preset(self):
        assert FaultSpec.parse("heavy") == FAULT_PRESETS["heavy"]

    def test_parse_key_values(self):
        spec = FaultSpec.parse("reconfig_failure_prob=0.3,drop_prob=0.01")
        assert spec.reconfig_failure_prob == 0.3
        assert spec.drop_prob == 0.01

    def test_parse_preset_with_overrides(self):
        spec = FaultSpec.parse("heavy,drop_prob=0.1,reconfig_retries=5")
        assert spec.drop_prob == 0.1
        assert spec.reconfig_retries == 5
        assert spec.reconfig_failure_prob == \
            FAULT_PRESETS["heavy"].reconfig_failure_prob

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("frobnicate")
        with pytest.raises(ValueError):
            FaultSpec.parse("no_such_knob=1")
        with pytest.raises(ValueError):
            FaultSpec.parse("drop_prob=0.1,heavy")  # preset must be first

    def test_parse_active_until_none(self):
        spec = FaultSpec.parse("active_until_s=none")
        assert spec.active_until_s is None
        assert FaultSpec.parse("active_until_s=4.0").active_until_s == 4.0


class TestFaultPlan:
    def _spec(self):
        return FaultSpec(reconfig_failure_prob=0.4, reconfig_jitter=0.3,
                         inference_error_prob=0.2, drop_prob=0.3,
                         spike_prob=0.5)

    def test_same_seed_same_decisions(self):
        a = FaultPlan(self._spec(), seed=3)
        b = FaultPlan(self._spec(), seed=3)
        for t in np.linspace(0.0, 10.0, 50):
            assert a.drop_request(t) == b.drop_request(t)
            assert a.inference_fails(t) == b.inference_fails(t)
            assert a.reconfig_outcome(t, 0.145) == \
                b.reconfig_outcome(t, 0.145)
        assert np.array_equal(a.spike_arrivals(25.0, 600.0),
                              b.spike_arrivals(25.0, 600.0))
        assert a.injected == b.injected

    def test_category_streams_independent(self):
        """Consuming one category's stream must not shift another's."""
        a = FaultPlan(self._spec(), seed=9)
        b = FaultPlan(self._spec(), seed=9)
        for t in np.linspace(0.0, 5.0, 200):  # drain drops on a only
            a.drop_request(t)
        assert a.reconfig_outcome(0.0, 0.145) == \
            b.reconfig_outcome(0.0, 0.145)
        assert a.inference_fails(0.0) == b.inference_fails(0.0)

    def test_active_window_gates_everything(self):
        spec = FaultSpec(reconfig_failure_prob=1.0, drop_prob=1.0,
                         inference_error_prob=1.0, reconfig_jitter=0.5,
                         spike_prob=1.0, active_from_s=10.0,
                         active_until_s=20.0)
        plan = FaultPlan(spec, seed=0)
        assert not plan.drop_request(9.99)
        assert not plan.inference_fails(20.0)
        assert plan.reconfig_outcome(5.0, 0.145) == (False, 0.145)
        assert plan.drop_request(10.0)
        assert plan.inference_fails(15.0)
        fails, duration = plan.reconfig_outcome(15.0, 0.145)
        assert fails
        spikes = plan.spike_arrivals(30.0, 100.0)
        assert len(spikes) > 0
        assert spikes.min() >= 10.0 and spikes.max() < 20.0 + spec.spike_duration_s

    def test_jitter_bounds(self):
        spec = FaultSpec(reconfig_jitter=0.25)
        plan = FaultPlan(spec, seed=1)
        for _ in range(100):
            _, d = plan.reconfig_outcome(0.0, 0.145)
            assert 0.145 * 0.75 <= d <= 0.145 * 1.25

    def test_spike_rate_roughly_matches_factor(self):
        spec = FaultSpec(spike_prob=1.0, spike_factor=3.0,
                         spike_duration_s=1.0)
        plan = FaultPlan(spec, seed=2)
        extra = plan.spike_arrivals(20.0, 100.0)
        # Every window spikes at +2x nominal: expect ~ 20 s * 200 IPS.
        assert 0.8 * 4000 < len(extra) < 1.2 * 4000
        assert plan.injected["spike_windows"] == 20

    def test_injected_counters_track_faults(self):
        plan = FaultPlan(FaultSpec(drop_prob=1.0), seed=0)
        for t in range(5):
            assert plan.drop_request(float(t))
        assert plan.injected["drops"] == 5

    def test_zero_prob_draws_nothing(self):
        plan = FaultPlan(FaultSpec(), seed=0)
        assert not plan.drop_request(0.0)
        assert plan.reconfig_outcome(0.0, 0.145) == (False, 0.145)
        assert len(plan.spike_arrivals(10.0, 100.0)) == 0


windows = st.sampled_from([(0.0, None), (1.5, None), (0.0, 3.0),
                            (1.5, 3.0)])


@st.composite
def sorted_times(draw):
    """Sorted event times on a coarse grid (ties and window edges)."""
    ticks = draw(st.lists(st.integers(0, 16), max_size=60))
    return np.sort(np.asarray(ticks, dtype=np.float64) * 0.25)


def block_reader(plan):
    """Successive decisions from ``plan.inference_failure_block``, read
    by index the way the serving kernel reads them."""
    block, at = [], 0

    def next_decision():
        nonlocal block, at
        if at == len(block):
            block, at = plan.inference_failure_block(), 0
        at += 1
        return block[at - 1]
    return next_decision


class TestVectorizedDecisions:
    """The fast path's batched fault draws give exactly the decisions of
    successive scalar calls on a plan with the same ``(spec, seed)``."""

    @settings(max_examples=60, deadline=None)
    @given(prob=st.sampled_from([0.0, 0.05, 0.5, 1.0]), window=windows,
           seed=st.integers(0, 2**16), times=sorted_times())
    def test_drop_mask_matches_drop_request(self, prob, window, seed,
                                            times):
        spec = FaultSpec(drop_prob=prob, active_from_s=window[0],
                         active_until_s=window[1])
        scalar = FaultPlan(spec, seed=(seed, 1))
        vector = FaultPlan(spec, seed=(seed, 1))
        expected = [scalar.drop_request(float(t)) for t in times]
        mask = vector.drop_mask(times)
        assert mask.dtype == bool and mask.tolist() == expected
        assert vector.injected == scalar.injected
        # Both plans' drop streams end at the same position.
        assert vector._drop_rng.random() == scalar._drop_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(prob=st.sampled_from([0.0, 0.05, 0.5, 1.0]), window=windows,
           seed=st.integers(0, 2**16), times=sorted_times())
    def test_inference_failures_match_inference_fails(
            self, prob, window, seed, times):
        """One decision per completion inside the active window, read
        by index from successive blocks as the kernel consumes them."""
        spec = FaultSpec(inference_error_prob=prob,
                         active_from_s=window[0], active_until_s=window[1])
        scalar = FaultPlan(spec, seed=seed)
        vector = FaultPlan(spec, seed=seed)
        fails = block_reader(vector)
        expected = [scalar.inference_fails(float(t)) for t in times]
        got = [vector.active(float(t)) and fails() for t in times]
        assert got == expected
        # Documented: the blocks leave the counter to their caller.
        assert vector.injected["inference_errors"] == 0

    def test_inference_failures_span_draw_blocks(self):
        """Thousands of decisions: block refills are seamless."""
        spec = FaultSpec(inference_error_prob=0.3)
        scalar = FaultPlan(spec, seed=(4, 2))
        vector = FaultPlan(spec, seed=(4, 2))
        assert len(vector.inference_failure_block()) == 1024
        fails = block_reader(FaultPlan(spec, seed=(4, 2)))
        assert [fails() for _ in range(3000)] == \
            [scalar.inference_fails(0.0) for _ in range(3000)]


class TestSelectWithoutReconfig:
    def _library(self):
        lib = Library()
        # Two accelerators, three thresholds each.
        for rate, accs in [(0.0, (0.84, 0.88, 0.90)),
                           (0.8, (0.70, 0.74, 0.78))]:
            for ct, acc in zip((0.1, 0.5, 0.9), accs):
                lib.add(make_entry(rate=rate, ct=ct, acc=acc, ips=500.0))
        return lib

    def test_stays_on_current_accelerator(self):
        lib = self._library()
        mgr = RuntimeManager(lib)
        current = [e for e in lib
                   if e.accelerator.pruning_rate == 0.8][0]
        pick = mgr.select_without_reconfig(current)
        assert pick.accelerator == current.accelerator

    def test_prefers_floor_honouring_entry(self):
        from repro.runtime import SelectionPolicy

        lib = self._library()
        mgr = RuntimeManager(lib, SelectionPolicy(
            accuracy_loss_threshold=0.16))  # floor = 0.74
        current = [e for e in lib
                   if e.accelerator.pruning_rate == 0.8][0]
        pick = mgr.select_without_reconfig(current)
        assert pick.accuracy == pytest.approx(0.78)
        assert pick.accuracy >= mgr.min_accuracy

    def test_falls_back_to_best_available(self):
        lib = self._library()
        mgr = RuntimeManager(lib)  # floor = 0.80: pruned accel all below
        current = [e for e in lib
                   if e.accelerator.pruning_rate == 0.8][0]
        pick = mgr.select_without_reconfig(current)
        assert pick.accuracy == pytest.approx(0.78)  # best reachable

    def test_none_without_deployment(self):
        mgr = RuntimeManager(self._library())
        assert mgr.select_without_reconfig(None) is None


class TestControllerFailures:
    def test_failed_attempt_keeps_bitstream(self):
        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.0))
        ok, dead = ctrl.attempt_switch(aid(0.4), now_s=1.0, fails=True)
        assert not ok
        assert dead == pytest.approx(0.145)
        assert ctrl.current == aid(0.0)
        assert ctrl.failed_count == 1
        assert ctrl.failed_dead_time_s == pytest.approx(0.145)
        assert ctrl.runtime_swaps() == []  # no successful runtime swap

    def test_duration_override(self):
        ctrl = ReconfigurationController()
        ok, dead = ctrl.attempt_switch(aid(0.1), duration_s=0.2)
        assert ok and dead == pytest.approx(0.2)
        with pytest.raises(ValueError):
            ctrl.attempt_switch(aid(0.3), duration_s=-0.1)

    def test_noop_attempt_records_nothing(self):
        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.0))
        ok, dead = ctrl.attempt_switch(aid(0.0), fails=True)
        assert ok and dead == 0.0
        assert ctrl.count == 1

    def test_mixed_accounting(self):
        ctrl = ReconfigurationController(reconfig_time_s=0.1)
        ctrl.switch(aid(0.0))
        ctrl.attempt_switch(aid(0.4), fails=True)
        ctrl.attempt_switch(aid(0.4), fails=False)
        assert ctrl.count == 3
        assert ctrl.failed_count == 1
        assert ctrl.total_dead_time_s == pytest.approx(0.3)
        assert ctrl.failed_dead_time_s == pytest.approx(0.1)
        assert len(ctrl.runtime_swaps()) == 1
        assert len(ctrl.failed_attempts()) == 1
