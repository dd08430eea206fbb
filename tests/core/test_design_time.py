"""Library Generator tests (on the session-scoped quick library)."""

import numpy as np
import pytest

from repro.core import AdaPExConfig, LibraryGenerator


class TestGeneratedLibrary:
    def test_entry_census(self, quick_library):
        cfg = AdaPExConfig.quick(seed=1)
        rates = len(cfg.pruning_rates)
        cts = len(cfg.confidence_thresholds)
        # ee pruned + ee not-pruned: rates * cts each; backbone: rates * 1.
        expected = 2 * rates * cts + rates
        assert len(quick_library) == expected

    def test_variants_present(self, quick_library):
        variants = {(a.variant, a.pruned_exits)
                    for a in quick_library.accelerators()}
        assert ("ee", True) in variants
        assert ("ee", False) in variants
        assert ("backbone", True) in variants

    def test_metadata(self, quick_library):
        md = quick_library.metadata
        assert md["dataset"] == "cifar10"
        assert md["num_classes"] == 10
        assert md["quant"] == "W2A2"

    def test_entries_within_physical_bounds(self, quick_library):
        for e in quick_library:
            assert 0.0 <= e.accuracy <= 1.0
            assert e.serving_ips > 0
            assert e.latency_s > 0
            assert e.energy_per_inference_j > 0
            assert e.power_busy_w >= e.power_idle_w > 0
            assert np.isclose(sum(e.exit_rates), 1.0)

    def test_pruning_reduces_latency(self, quick_library):
        """At the highest confidence threshold (all frames to the final
        exit), pruned accelerators must be faster."""
        ee = [e for e in quick_library
              if e.accelerator.variant == "ee" and e.accelerator.pruned_exits
              and e.confidence_threshold == 0.95]
        by_rate = {e.accelerator.pruning_rate: e for e in ee}
        assert by_rate[0.8].exit_latencies_s[-1] \
            < by_rate[0.0].exit_latencies_s[-1]

    def test_lower_ct_means_more_early_exits(self, quick_library):
        ee = [e for e in quick_library
              if e.accelerator.variant == "ee" and e.accelerator.pruned_exits
              and e.accelerator.pruning_rate == 0.0]
        by_ct = {e.confidence_threshold: e for e in ee}
        assert by_ct[0.05].exit_rates[0] >= by_ct[0.95].exit_rates[0]

    def test_backbone_entries_single_exit(self, quick_library):
        for e in quick_library:
            if e.accelerator.variant == "backbone":
                assert e.exit_rates == (1.0,)
                assert len(e.exit_latencies_s) == 1

    def test_resources_recorded_and_decreasing(self, quick_library):
        ee = [e for e in quick_library
              if e.accelerator.variant == "ee" and e.accelerator.pruned_exits]
        by_rate = {}
        for e in ee:
            by_rate.setdefault(e.accelerator.pruning_rate, e)
        assert by_rate[0.8].resources["bram18"] \
            < by_rate[0.0].resources["bram18"]

    def test_not_pruned_exits_cost_more_bram_when_pruned_hard(
            self, quick_library):
        def bram(pruned_exits):
            for e in quick_library:
                a = e.accelerator
                if a.variant == "ee" and a.pruned_exits == pruned_exits \
                        and a.pruning_rate == 0.8:
                    return e.resources["bram18"]
            raise AssertionError("entry missing")

        assert bram(False) >= bram(True)


class TestGeneratorInternals:
    def test_datasets_cached(self):
        gen = LibraryGenerator(AdaPExConfig.quick(seed=2))
        a = gen.datasets()
        b = gen.datasets()
        assert a[0] is b[0]

    def test_num_classes_gtsrb(self):
        gen = LibraryGenerator(AdaPExConfig.quick(dataset="gtsrb", seed=0))
        assert gen.num_classes == 43

    def test_progress_called(self, quick_framework):
        # The session fixture already generated; a fresh tiny generator
        # verifies the progress hook fires.
        cfg = AdaPExConfig.quick(seed=3)
        cfg.pruning_rates = [0.0]
        cfg.confidence_thresholds = [0.5]
        cfg.include_not_pruned_exits = False
        cfg.include_backbone_variant = False
        messages = []
        LibraryGenerator(cfg).generate(progress=messages.append)
        assert any("training base model" in m for m in messages)

    def test_shared_topology_trains_and_logs_once(self, monkeypatch):
        """The pruned- and unpruned-exit variants share one exit
        topology: three variants, two fits, two log lines, two ``train``
        phases."""
        from repro.core.instrument import PhaseTimer
        from repro.nn.trainer import Trainer

        fits = []
        real_fit = Trainer.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", counting_fit)
        cfg = AdaPExConfig.quick(seed=3)
        cfg.pruning_rates = [0.0]
        cfg.confidence_thresholds = [0.5]
        messages = []
        timer = PhaseTimer()
        LibraryGenerator(cfg).generate(progress=messages.append,
                                       timer=timer)
        assert len(fits) == 2
        assert sum("training base model" in m for m in messages) == 2
        assert timer.count("train") == 2


class TestInfeasibleFold:
    """A folding that cannot divide an unpruned layer fails the same way
    on every attempt: the point is quarantined as permanent after one
    attempt, and a resume does not retry it."""

    @staticmethod
    def infeasible_config():
        from repro.nn.trainer import TrainConfig

        cfg = AdaPExConfig.quick(seed=0)
        # exit1_conv gets 76 channels; its consumer folds with SIMD 8.
        cfg.width_scale = 0.6
        cfg.train_samples, cfg.test_samples = 32, 16
        cfg.pruning_rates = [0.4]
        cfg.confidence_thresholds = [0.5]
        cfg.initial_training = TrainConfig(epochs=0, batch_size=32)
        cfg.include_not_pruned_exits = False
        cfg.include_backbone_variant = False
        return cfg

    def test_quarantined_as_permanent_after_one_attempt(self, tmp_path):
        cfg = self.infeasible_config()
        for _ in range(2):  # the run, then a resume
            messages = []
            library = LibraryGenerator(cfg).generate(
                progress=messages.append, point_cache=tmp_path)
            [failed] = library.metadata["quarantined"]
            assert failed["kind"] == "permanent"
            assert failed["attempts"] == 1
            assert failed["error_type"] == "PruningError"
            assert failed["message"].startswith("exit1_conv: ")
            assert len(library) == 0
        assert any("skipped (quarantined" in m for m in messages)

    def test_quarantined_the_same_way_without_a_point_cache(
            self, tmp_path, monkeypatch):
        """No point cache, no manifest: the sweep still quarantines the
        point (same record as with a cache) and writes nothing."""
        cached = LibraryGenerator(self.infeasible_config()).generate(
            point_cache=tmp_path / "points")
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        library = LibraryGenerator(self.infeasible_config()).generate()
        [failed] = library.metadata["quarantined"]
        assert failed["kind"] == "permanent"
        assert failed["attempts"] == 1
        assert len(library) == 0
        assert library.metadata["quarantined"] \
            == cached.metadata["quarantined"]
        assert list(workdir.iterdir()) == []


class TestPrecisionSweep:
    """The precision axis multiplies the design space and serves INT8
    variants through the standard runtime stack."""

    @pytest.fixture(scope="class")
    def int8_library(self):
        from repro.nn.trainer import TrainConfig

        cfg = AdaPExConfig.quick(seed=5)
        cfg.train_samples = 96
        cfg.test_samples = 48
        cfg.pruning_rates = [0.5]
        cfg.confidence_thresholds = [0.5]
        cfg.initial_training = TrainConfig(epochs=1, batch_size=48,
                                           lr=0.002)
        cfg.precisions = ["base", "int8"]
        cfg.zero_skip = True
        # The full-width W8A8 twin does not fit ZCU104 (that is the
        # pruning-enables-precision story); shrink the hardware twin.
        cfg.resource_width_scale = 0.25
        cfg.include_not_pruned_exits = False
        cfg.include_backbone_variant = False
        return LibraryGenerator(cfg).generate()

    def test_both_precisions_present(self, int8_library):
        precisions = {e.accelerator.precision for e in int8_library}
        assert precisions == {"base", "int8"}
        labels = {e.accelerator.label() for e in int8_library}
        assert "ee-pr50-px" in labels
        assert "ee-pr50-px-int8" in labels

    def test_metadata_records_axis(self, int8_library):
        assert int8_library.metadata["precisions"] == ["base", "int8"]
        assert int8_library.metadata["zero_skip"] is True

    def test_int8_costs_more_serves_less(self, int8_library):
        base = next(e for e in int8_library
                    if e.accelerator.precision == "base")
        int8 = next(e for e in int8_library
                    if e.accelerator.precision == "int8")
        assert int8.resources["bram18"] > base.resources["bram18"]
        assert int8.serving_ips < base.serving_ips

    def test_serves_through_runtime_manager(self, int8_library):
        from repro.runtime import RuntimeManager

        manager = RuntimeManager(int8_library)
        slow = manager.select(1.0)
        assert slow is not None
        # Every entry, including INT8 ones, is individually selectable.
        for entry in int8_library:
            assert manager.select(entry.serving_ips * 0.9) is not None
