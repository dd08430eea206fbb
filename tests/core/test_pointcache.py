"""Per-design-point cache tests: round-trip, invalidation on any
``cache_key()`` change (including the flow version), and the hit path
skipping prune/compile entirely."""

import pytest

from repro.core import AdaPExConfig, LibraryGenerator, PointCache
from repro.core import config as config_mod
from repro.core import design_time
from tests.conftest import make_entry


def tiny_config(seed=6, rates=(0.0, 0.4)):
    cfg = AdaPExConfig.quick(seed=seed)
    cfg.train_samples = 192
    cfg.test_samples = 96
    cfg.pruning_rates = list(rates)
    cfg.confidence_thresholds = [0.5]
    cfg.include_not_pruned_exits = False
    cfg.include_backbone_variant = False
    return cfg


class TestPointCacheBasics:
    def test_miss_then_roundtrip(self, tmp_path):
        cache = PointCache(tmp_path)
        key = PointCache.point_key("abc", "ee", True, 0.4)
        assert cache.get(key) is None
        entries = [make_entry(rate=0.4, ct=0.5, acc=0.8, ips=100.0)]
        cache.put(key, entries)
        assert key in cache
        restored = cache.get(key)
        assert [e.to_dict() for e in restored] \
            == [e.to_dict() for e in entries]
        assert cache.hits == 1 and cache.misses == 1

    def test_key_distinguishes_every_field(self):
        base = PointCache.point_key("cfg", "ee", True, 0.4)
        assert PointCache.point_key("cfg2", "ee", True, 0.4) != base
        assert PointCache.point_key("cfg", "backbone", True, 0.4) != base
        assert PointCache.point_key("cfg", "ee", False, 0.4) != base
        assert PointCache.point_key("cfg", "ee", True, 0.45) != base

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = PointCache(tmp_path)
        key = PointCache.point_key("abc", "ee", True, 0.0)
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_corrupt_file_logs_warning_with_key(self, tmp_path, caplog):
        cache = PointCache(tmp_path)
        key = PointCache.point_key("abc", "ee", True, 0.0)
        cache.path_for(key).write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.core.pointcache"):
            assert cache.get(key) is None
        assert key in caplog.text and "corrupt" in caplog.text

    def test_clean_miss_is_silent(self, tmp_path, caplog):
        cache = PointCache(tmp_path)
        key = PointCache.point_key("abc", "ee", True, 0.0)
        with caplog.at_level("WARNING", logger="repro.core.pointcache"):
            assert cache.get(key) is None
        assert caplog.text == ""

    def test_purge_corrupt_removes_only_bad_files(self, tmp_path):
        cache = PointCache(tmp_path)
        good = PointCache.point_key("abc", "ee", True, 0.0)
        cache.put(good, [make_entry(rate=0.0, ct=0.5, acc=0.8,
                                    ips=100.0)])
        unparseable = PointCache.point_key("abc", "ee", True, 0.2)
        cache.path_for(unparseable).write_text("{not json")
        # Parses, but the entry no longer validates.
        invalid = PointCache.point_key("abc", "ee", True, 0.4)
        cache.path_for(invalid).write_text(
            '{"entries": [{"accuracy": "high"}]}')
        assert cache.purge_corrupt() == 2
        assert good in cache
        assert unparseable not in cache and invalid not in cache
        assert cache.get(good) is not None

    def test_purge_corrupt_on_clean_cache(self, tmp_path):
        cache = PointCache(tmp_path)
        cache.put(PointCache.point_key("abc", "ee", True, 0.0), [])
        assert cache.purge_corrupt() == 0
        assert len(cache) == 1

    def test_clear_and_len(self, tmp_path):
        cache = PointCache(tmp_path)
        for rate in (0.0, 0.2, 0.4):
            cache.put(PointCache.point_key("k", "ee", True, rate), [])
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_evict_keeps_latest(self, tmp_path):
        import os
        import time
        cache = PointCache(tmp_path)
        keys = [PointCache.point_key("k", "ee", True, r)
                for r in (0.0, 0.2, 0.4)]
        now = time.time()
        for i, key in enumerate(keys):
            cache.put(key, [])
            os.utime(cache.path_for(key), (now + i, now + i))
        assert cache.evict(keep_latest=1) == 2
        assert keys[-1] in cache
        assert keys[0] not in cache

    def test_evict_validates(self, tmp_path):
        with pytest.raises(ValueError):
            PointCache(tmp_path).evict(-1)

    def test_files_are_json_dumps_of_the_payload(self, tmp_path):
        """``put``/``put_aux`` write ``json.dumps`` of the payload (the
        bytes ``json.dump`` streams), and ``get``/``get_aux`` read it
        back."""
        import io
        import json

        cache = PointCache(tmp_path)
        key = PointCache.point_key("abc", "ee", True, 0.4)
        entries = [make_entry(rate=0.4, ct=ct, acc=0.8, ips=100.0 + ct)
                   for ct in (0.1, 0.5, 0.9)]
        payload = {"entries": [e.to_dict() for e in entries]}
        cache.put(key, entries)
        streamed = io.StringIO()
        json.dump(payload, streamed)
        text = cache.path_for(key).read_text()
        assert text == json.dumps(payload) == streamed.getvalue()
        assert [e.to_dict() for e in cache.get(key)] == payload["entries"]

        score = {"accuracy": 0.125, "cycles": 4096, "fidelity": 2,
                 "epochs": 1, "note": "\u00e9"}
        cache.put_aux(key, score)
        assert cache.aux_path_for(key).read_text() \
            == json.dumps({"payload": score})
        assert cache.get_aux(key) == score


class TestGenerateWithPointCache:
    def _counters(self, monkeypatch):
        calls = {"prune": 0, "compile": 0}
        real_prune = design_time.prune_model
        real_compile = design_time.compile_accelerator

        def counting_prune(*args, **kwargs):
            calls["prune"] += 1
            return real_prune(*args, **kwargs)

        def counting_compile(*args, **kwargs):
            calls["compile"] += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(design_time, "prune_model", counting_prune)
        monkeypatch.setattr(design_time, "compile_accelerator",
                            counting_compile)
        return calls

    def test_warm_hit_skips_prune_and_compile(self, tmp_path, monkeypatch):
        cold = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path)
        calls = self._counters(monkeypatch)
        warm = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path)
        assert calls == {"prune": 0, "compile": 0}
        assert [e.to_dict() for e in warm] == [e.to_dict() for e in cold]

    def test_warm_hit_logs_cached_and_skips_training(self, tmp_path,
                                                     monkeypatch):
        LibraryGenerator(tiny_config()).generate(point_cache=tmp_path)
        from repro.nn.trainer import Trainer
        monkeypatch.setattr(
            Trainer, "fit",
            lambda *a, **k: pytest.fail("warm rerun must not train"))
        messages = []
        LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path, progress=messages.append)
        assert sum("(cached)" in m for m in messages) == 2

    def test_incremental_sweep_only_computes_new_rates(self, tmp_path,
                                                       monkeypatch):
        LibraryGenerator(tiny_config(rates=(0.0, 0.4))).generate(
            point_cache=tmp_path)
        calls = self._counters(monkeypatch)
        extended = LibraryGenerator(
            tiny_config(rates=(0.0, 0.4, 0.8))).generate(
            point_cache=tmp_path)
        # Only the new 0.8 point runs: one accuracy-twin prune (the
        # hardware twin is compiled from shapes), one compile.
        assert calls == {"prune": 1, "compile": 1}
        rates = {e.accelerator.pruning_rate for e in extended}
        assert rates == {0.0, 0.4, 0.8}

    def test_config_change_misses(self, tmp_path, monkeypatch):
        LibraryGenerator(tiny_config(seed=6)).generate(point_cache=tmp_path)
        calls = self._counters(monkeypatch)
        LibraryGenerator(tiny_config(seed=7)).generate(point_cache=tmp_path)
        assert calls["prune"] > 0 and calls["compile"] > 0

    def test_flow_version_bump_misses(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        LibraryGenerator(cfg).generate(point_cache=tmp_path)
        old_key = cfg.cache_key()
        monkeypatch.setattr(config_mod, "_FLOW_VERSION",
                            config_mod._FLOW_VERSION + 1)
        assert cfg.cache_key() != old_key
        calls = self._counters(monkeypatch)
        LibraryGenerator(tiny_config()).generate(point_cache=tmp_path)
        assert calls["prune"] > 0 and calls["compile"] > 0

    def test_accepts_path_string(self, tmp_path):
        lib = LibraryGenerator(tiny_config()).generate(
            point_cache=str(tmp_path))
        assert len(lib) == 2
        assert len(list(tmp_path.glob("point_*.json"))) == 2


class TestPrecisionSalt:
    def test_base_precision_key_unchanged(self):
        """precision='base' must hash like the pre-axis 4-arg key."""
        legacy = PointCache.point_key("cfg", "ee", True, 0.5)
        assert PointCache.point_key("cfg", "ee", True, 0.5,
                                    precision="base") == legacy

    def test_non_base_precision_salts(self):
        base = PointCache.point_key("cfg", "ee", True, 0.5)
        int8 = PointCache.point_key("cfg", "ee", True, 0.5,
                                    precision="int8")
        assert int8 != base

    def test_distinct_precisions_distinct_keys(self):
        keys = {PointCache.point_key("cfg", "ee", True, 0.5, precision=p)
                for p in ("base", "int8", "int4")}
        assert len(keys) == 3
