"""Camera fleet workload tests."""

import numpy as np
import pytest

from repro.edge import CameraFleet, WorkloadSpec


class TestWorkloadSpec:
    def test_paper_defaults(self):
        spec = WorkloadSpec()
        assert spec.num_cameras == 20
        assert spec.ips_per_camera == 30.0
        assert spec.duration_s == 25.0
        assert spec.deviation == 0.30
        assert spec.deviation_interval_s == 5.0
        assert spec.nominal_ips == 600.0
        assert spec.num_windows() == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_cameras=0)
        with pytest.raises(ValueError):
            WorkloadSpec(deviation=1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(duration_s=0.0)

    @pytest.mark.parametrize("field", [
        "ips_per_camera", "duration_s", "deviation_interval_s"])
    def test_non_finite_field_rejected(self, field):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=field):
                WorkloadSpec(**{field: value})


class TestCameraFleet:
    def test_window_rates_within_deviation(self):
        fleet = CameraFleet(seed=0)
        rates = fleet.window_rates()
        assert rates.shape == (5,)
        assert np.all(rates >= 600 * 0.7 - 1e-9)
        assert np.all(rates <= 600 * 1.3 + 1e-9)

    def test_deterministic_per_seed(self):
        a = CameraFleet(seed=3).arrival_times()
        b = CameraFleet(seed=3).arrival_times()
        np.testing.assert_allclose(a, b)

    def test_seeds_differ(self):
        a = CameraFleet(seed=1).arrival_times()
        b = CameraFleet(seed=2).arrival_times()
        assert len(a) != len(b) or not np.allclose(a[:50], b[:50])

    def test_arrivals_sorted_and_bounded(self):
        times = CameraFleet(seed=4).arrival_times()
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0
        assert times.max() < 25.0

    def test_total_volume_near_nominal(self):
        times = CameraFleet(seed=5).arrival_times()
        # 600 IPS nominal for 25 s = 15000 requests +- deviation.
        assert 15000 * 0.7 < len(times) < 15000 * 1.3

    def test_rates_actually_fluctuate(self):
        rates = CameraFleet(seed=6).window_rates()
        assert rates.std() > 1.0

    def test_small_custom_workload(self):
        spec = WorkloadSpec(num_cameras=2, ips_per_camera=5.0,
                            duration_s=4.0, deviation_interval_s=2.0)
        fleet = CameraFleet(spec, seed=0)
        times = fleet.arrival_times()
        assert 4.0 * 10 * 0.7 <= len(times) <= 4.0 * 10 * 1.3
        assert fleet.expected_total_requests() == pytest.approx(
            fleet.window_rates().sum() * 2.0)


class TestVectorizedGeneration:
    """The dense-matrix arrival generator must be byte-identical to the
    historical per-(window, camera) ``np.arange`` loop."""

    @staticmethod
    def _reference(fleet):
        """The pre-vectorization generator, kept verbatim as the pin."""
        spec = fleet.spec
        rng = np.random.default_rng(fleet.seed)
        deviations = rng.uniform(
            1.0 - spec.deviation, 1.0 + spec.deviation,
            size=(spec.num_windows(), spec.num_cameras))
        phases = rng.uniform(0.0, 1.0, size=spec.num_cameras)
        arrivals = []
        for w in range(spec.num_windows()):
            t0 = w * spec.deviation_interval_s
            t1 = min(t0 + spec.deviation_interval_s, spec.duration_s)
            for cam in range(spec.num_cameras):
                rate = spec.ips_per_camera * deviations[w, cam]
                period = 1.0 / rate
                first = t0 + phases[cam] * period
                arrivals.append(np.arange(first, t1, period))
        out = np.concatenate(arrivals)
        out.sort()
        return out

    def test_byte_identical_default_spec(self):
        for seed in range(5):
            fleet = CameraFleet(seed=seed)
            assert fleet.arrival_times().tobytes() == \
                self._reference(fleet).tobytes()

    def test_byte_identical_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            spec = WorkloadSpec(
                num_cameras=int(rng.integers(1, 25)),
                ips_per_camera=float(rng.uniform(0.5, 150.0)),
                duration_s=float(rng.uniform(0.1, 30.0)),
                deviation=float(rng.uniform(0.0, 0.9)),
                deviation_interval_s=float(rng.uniform(0.05, 8.0)))
            fleet = CameraFleet(spec, seed=int(rng.integers(0, 10**6)))
            assert fleet.arrival_times().tobytes() == \
                self._reference(fleet).tobytes()

    def test_byte_identical_when_chunked(self, monkeypatch):
        """The memory-bounded row-chunking path changes nothing."""
        monkeypatch.setattr(CameraFleet, "_MAX_MATRIX_ELEMS", 32)
        spec = WorkloadSpec(num_cameras=7, ips_per_camera=40.0,
                            duration_s=6.0, deviation_interval_s=2.0)
        for seed in range(5):
            fleet = CameraFleet(spec, seed=seed)
            assert fleet.arrival_times().tobytes() == \
                self._reference(fleet).tobytes()

    def test_window_shorter_than_period(self):
        """Cameras whose first emission misses the final short window
        contribute nothing, exactly like the arange loop."""
        spec = WorkloadSpec(num_cameras=3, ips_per_camera=0.7,
                            duration_s=2.2, deviation_interval_s=1.0)
        for seed in range(10):
            fleet = CameraFleet(spec, seed=seed)
            assert fleet.arrival_times().tobytes() == \
                self._reference(fleet).tobytes()
