"""AdaPExConfig tests."""

import pytest

from repro.core import AdaPExConfig, paper_threshold_sweep
from repro.pruning import paper_rate_sweep


class TestSweeps:
    def test_threshold_sweep(self):
        cts = paper_threshold_sweep()
        assert len(cts) == 21
        assert cts[0] == 0.0 and cts[-1] == 1.0

    def test_paper_config_matches_methodology(self):
        cfg = AdaPExConfig.paper()
        assert cfg.pruning_rates == paper_rate_sweep()
        assert len(cfg.confidence_thresholds) == 21
        assert cfg.quant.name == "W2A2"
        assert cfg.device.part == "XCZU7EV"
        assert cfg.clock_mhz == 100.0
        assert cfg.exits.num_early_exits == 2


class TestValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            AdaPExConfig(pruning_rates=[1.0])
        with pytest.raises(ValueError):
            AdaPExConfig(pruning_rates=[])

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            AdaPExConfig(train_samples=0)

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            AdaPExConfig(parallel_workers=0)

    @pytest.mark.parametrize("scale", [0.0, -0.25, float("nan"),
                                       float("inf")])
    def test_bad_resource_width_scale(self, scale):
        with pytest.raises(ValueError, match="resource_width_scale"):
            AdaPExConfig(resource_width_scale=scale)


class TestCacheKey:
    def test_stable(self):
        assert AdaPExConfig.quick().cache_key() == \
            AdaPExConfig.quick().cache_key()

    def test_sensitive_to_dataset(self):
        assert AdaPExConfig.quick("cifar10").cache_key() != \
            AdaPExConfig.quick("gtsrb").cache_key()

    def test_sensitive_to_rates(self):
        a = AdaPExConfig.quick()
        b = AdaPExConfig.quick()
        b.pruning_rates = [0.0, 0.5]
        assert a.cache_key() != b.cache_key()


class TestQuickProfile:
    def test_runs_fast_settings(self):
        cfg = AdaPExConfig.quick()
        assert cfg.train_samples <= 512
        assert cfg.initial_training.epochs <= 3
        assert len(cfg.pruning_rates) <= 5


class TestComputeDtype:
    def test_default_float64(self):
        cfg = AdaPExConfig.quick()
        assert cfg.compute_dtype == "float64"
        import numpy as np
        assert cfg.np_dtype == np.float64

    def test_float32_np_dtype(self):
        import numpy as np
        cfg = AdaPExConfig.quick()
        cfg.compute_dtype = "float32"
        assert cfg.np_dtype == np.float32

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            AdaPExConfig(compute_dtype="float16")

    def test_cache_key_unchanged_for_default(self):
        """float64 must not alter keys minted before the field existed."""
        a = AdaPExConfig.quick()
        b = AdaPExConfig.quick()
        b.compute_dtype = "float64"
        assert a.cache_key() == b.cache_key()

    def test_cache_key_sensitive_to_float32(self):
        a = AdaPExConfig.quick()
        b = AdaPExConfig.quick()
        b.compute_dtype = "float32"
        assert a.cache_key() != b.cache_key()


class TestPrecisionAxis:
    def test_default_is_base_only(self):
        config = AdaPExConfig.quick()
        assert config.precisions == ["base"]
        assert config.zero_skip is False

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="unknown precision"):
            AdaPExConfig.quick(seed=0).__class__(precisions=["int4"])

    def test_empty_and_duplicate_rejected(self):
        with pytest.raises(ValueError):
            AdaPExConfig(precisions=[])
        with pytest.raises(ValueError):
            AdaPExConfig(precisions=["base", "base"])

    def test_precision_spec_lookup(self):
        config = AdaPExConfig.quick()
        assert config.precision_spec("base") is None
        spec = config.precision_spec("int8")
        assert spec.weight_bits == 8 and spec.act_bits == 8
        with pytest.raises(ValueError):
            config.precision_spec("bf16")

    def test_cache_key_unchanged_for_default(self):
        """Pre-precision-axis keys must survive: golden traces pin them."""
        a = AdaPExConfig.quick()
        b = AdaPExConfig.quick()
        b.precisions = ["base"]
        b.zero_skip = False
        assert a.cache_key() == b.cache_key()
        assert a.point_cache_key() == b.point_cache_key()

    def test_library_key_sees_precisions_point_key_does_not(self):
        base = AdaPExConfig.quick()
        wide = AdaPExConfig.quick()
        wide.precisions = ["base", "int8"]
        assert wide.cache_key() != base.cache_key()
        # the per-point key ignores the sweep: old points keep hitting
        assert wide.point_cache_key() == base.point_cache_key()

    def test_zero_skip_salts_both_keys(self):
        base = AdaPExConfig.quick()
        zs = AdaPExConfig.quick()
        zs.zero_skip = True
        assert zs.cache_key() != base.cache_key()
        assert zs.point_cache_key() != base.point_cache_key()
