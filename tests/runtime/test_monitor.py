"""Workload monitor tests."""

import pytest

from repro.runtime import WorkloadMonitor


class TestWorkloadMonitor:
    def test_sampled_rate(self):
        mon = WorkloadMonitor(window_s=1.0)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        assert mon.sampled_ips(1.0) == pytest.approx(9.0)  # 0.0 expired

    def test_window_trims(self):
        mon = WorkloadMonitor(window_s=1.0)
        mon.record_arrival(0.0)
        mon.record_arrival(5.0)
        assert mon.sampled_ips(5.0) == pytest.approx(1.0)

    def test_out_of_order_rejected(self):
        mon = WorkloadMonitor()
        mon.record_arrival(1.0)
        with pytest.raises(ValueError):
            mon.record_arrival(0.5)

    def test_change_flag_lifecycle(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.10)
        for i in range(20):
            mon.record_arrival(i * 0.05)
        assert mon.change_flagged(1.0)  # nothing acknowledged yet
        mon.acknowledge(1.0)
        assert not mon.change_flagged(1.0)

    def test_change_detected_on_rate_jump(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.10)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        mon.acknowledge(1.0)
        # Burst: rate doubles within the next window.
        for i in range(20):
            mon.record_arrival(1.0 + i * 0.05)
        assert mon.change_flagged(2.0)

    def test_small_drift_not_flagged(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.50)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        mon.acknowledge(1.0)
        for i in range(11):
            mon.record_arrival(1.0 + i * 0.09)
        assert not mon.change_flagged(2.0)

    def test_reset(self):
        mon = WorkloadMonitor()
        mon.record_arrival(0.5)
        mon.acknowledge(1.0)
        mon.reset()
        assert mon.sampled_ips(1.0) == 0.0
        assert mon.change_flagged(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(window_s=0.0)
        with pytest.raises(ValueError):
            WorkloadMonitor(change_threshold=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, value):
        with pytest.raises(ValueError, match="window_s"):
            WorkloadMonitor(window_s=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_arrival_rejected(self, value):
        mon = WorkloadMonitor(window_s=1.0)
        with pytest.raises(ValueError, match="arrival time"):
            mon.record_arrival(value)
        # A NaN would never be trimmed and would inflate every rate.
        mon.record_arrival(0.5)
        assert mon.sampled_ips(5.0) == 0.0


class TestObserveMany:
    def test_equivalent_to_per_frame_recording(self):
        times = [0.1, 0.2, 0.2, 0.35, 0.9, 1.4, 2.0]
        one = WorkloadMonitor(window_s=1.0)
        for t in times:
            one.record_arrival(t)
        batch = WorkloadMonitor(window_s=1.0)
        batch.observe_many(times)
        assert list(one._arrivals) == list(batch._arrivals)
        assert one.sampled_ips(2.0) == batch.sampled_ips(2.0)

    def test_split_batches_equivalent(self):
        times = [i * 0.07 for i in range(50)]
        one = WorkloadMonitor(window_s=0.5)
        one.observe_many(times)
        split = WorkloadMonitor(window_s=0.5)
        split.observe_many(times[:20])
        split.observe_many(times[20:])
        assert list(one._arrivals) == list(split._arrivals)

    def test_empty_batch_is_noop(self):
        mon = WorkloadMonitor()
        mon.observe_many([])
        assert mon.sampled_ips(1.0) == 0.0

    def test_rejects_unsorted_batch(self):
        mon = WorkloadMonitor()
        with pytest.raises(ValueError):
            mon.observe_many([0.2, 0.1])

    def test_rejects_batch_before_recorded_tail(self):
        mon = WorkloadMonitor()
        mon.record_arrival(1.0)
        with pytest.raises(ValueError):
            mon.observe_many([0.5, 1.5])

    def test_rejects_non_1d(self):
        mon = WorkloadMonitor()
        with pytest.raises(ValueError):
            mon.observe_many([[0.1, 0.2]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_batch(self, value):
        mon = WorkloadMonitor()
        with pytest.raises(ValueError, match="arrival times"):
            mon.observe_many([0.1, value])
        assert mon.sampled_ips(0.1) == 0.0
