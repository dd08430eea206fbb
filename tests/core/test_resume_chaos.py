"""Chaos regression: a sweep killed mid-run (in-process interrupt or a
real SIGKILL of a child process) resumes from its checkpoint manifest
with zero recomputation of completed points, and the merged library is
byte-identical to one produced by an uninterrupted run."""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import design_time
from repro.core.config import AdaPExConfig
from repro.core.design_time import LibraryGenerator
from repro.core.supervise import fork_available
from repro.core.pointcache import PointCache
from repro.core.supervise import SuperviseConfig
from repro.pruning.pruner import PruningError
from repro.runtime.manager import RuntimeManager

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="needs fork start method")

FAST = SuperviseConfig(retries=0, backoff_s=0.001, poll_interval_s=0.02)


def tiny_config(rates=(0.0, 0.4), workers=1):
    cfg = AdaPExConfig.quick(seed=6)
    cfg.train_samples = 192
    cfg.test_samples = 96
    cfg.pruning_rates = list(rates)
    cfg.confidence_thresholds = [0.5]
    cfg.include_not_pruned_exits = False
    cfg.include_backbone_variant = False
    cfg.parallel_workers = workers
    return cfg


def counters(monkeypatch):
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


class TestInterruptedResume:
    def test_interrupt_resume_is_byte_identical(self, tmp_path,
                                                monkeypatch):
        """Kill the sweep after its first design point checkpoints;
        the resumed library must match the uninterrupted one byte for
        byte, re-running only the point that never completed."""
        baseline = LibraryGenerator(tiny_config()).generate(
            supervise=FAST)

        cache_dir = tmp_path / "cache"
        real_compile = design_time.compile_accelerator
        seen = {"n": 0}

        def killing_compile(*args, **kwargs):
            seen["n"] += 1
            if seen["n"] == 2:  # first point done and checkpointed
                raise KeyboardInterrupt
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(design_time, "compile_accelerator",
                            killing_compile)
        with pytest.raises(KeyboardInterrupt):
            LibraryGenerator(tiny_config()).generate(
                point_cache=cache_dir, supervise=FAST)
        monkeypatch.undo()

        cache = PointCache(cache_dir)
        assert len(cache) == 1  # exactly one point survived the kill
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        statuses = sorted(r["status"]
                          for r in manifest["points"].values())
        assert statuses == ["done", "pending"]

        calls = counters(monkeypatch)
        resume_cache = PointCache(cache_dir)
        resumed = LibraryGenerator(tiny_config()).generate(
            point_cache=resume_cache, supervise=FAST)
        # One point from cache (zero recompute), one computed fresh:
        # 1 prune (the accuracy twin; the hardware twin is compiled
        # from shapes) and 1 compile.
        assert resume_cache.hits == 1
        assert calls == {"prune": 1, "compile": 1}
        assert resumed.to_json() == baseline.to_json()

    def test_resume_after_resume_is_a_pure_cache_read(self, tmp_path,
                                                      monkeypatch):
        LibraryGenerator(tiny_config()).generate(point_cache=tmp_path,
                                                 supervise=FAST)
        calls = counters(monkeypatch)
        cache = PointCache(tmp_path)
        LibraryGenerator(tiny_config()).generate(point_cache=cache,
                                                 supervise=FAST)
        assert calls == {"prune": 0, "compile": 0}
        assert cache.hits == 2


_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.config import AdaPExConfig
from repro.core.design_time import LibraryGenerator

cfg = AdaPExConfig.quick(seed=6)
cfg.train_samples = 192
cfg.test_samples = 96
cfg.pruning_rates = [0.0, 0.4, 0.8]
cfg.confidence_thresholds = [0.5]
cfg.include_not_pruned_exits = False
cfg.include_backbone_variant = False
LibraryGenerator(cfg).generate(point_cache={cache!r}, progress=print)
"""


class TestSigkillResume:
    def test_sigkill_resume_is_byte_identical(self, tmp_path,
                                              monkeypatch):
        """SIGKILL a real child process mid-sweep; the parent resumes
        from whatever checkpoints hit the disk."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        cache_dir = tmp_path / "cache"
        script = _CHILD_SCRIPT.format(src=src, cache=str(cache_dir))
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        try:
            # Kill -9 as soon as the first checkpoint lands.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if list(cache_dir.glob("point_*.json")):
                    break
                if child.poll() is not None:
                    pytest.fail("child sweep exited before the kill")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint appeared within 120s")
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()

        # Every surviving checkpoint parses (atomic write-temp-rename);
        # the manifest is readable too.
        survivors = list(cache_dir.glob("point_*.json"))
        assert survivors
        for path in survivors:
            json.loads(path.read_text())
        done = len(survivors)

        calls = counters(monkeypatch)
        cache = PointCache(cache_dir)
        resumed = LibraryGenerator(
            tiny_config(rates=(0.0, 0.4, 0.8))).generate(
            point_cache=cache, supervise=FAST)
        monkeypatch.undo()
        # Zero recomputation of checkpointed points: the resume run
        # reads `done` points from cache and computes only the rest.
        assert cache.hits == done
        assert calls["prune"] == 3 - done
        assert calls["compile"] == 3 - done

        baseline = LibraryGenerator(
            tiny_config(rates=(0.0, 0.4, 0.8))).generate(supervise=FAST)
        assert resumed.to_json() == baseline.to_json()


class TestQuarantineResume:
    def test_permanent_failure_yields_partial_servable_library(
            self, tmp_path, monkeypatch):
        """A design point that fails permanently is quarantined: the
        sweep finishes, the partial library serves, and a resume skips
        the quarantined point without retrying it."""
        real_prune = design_time.prune_model

        def poisoned_prune(model, rate, *args, **kwargs):
            if rate == 0.4:
                raise PruningError("injected: rate 0.4 is infeasible")
            return real_prune(model, rate, *args, **kwargs)

        monkeypatch.setattr(design_time, "prune_model", poisoned_prune)
        partial = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path, supervise=FAST)
        monkeypatch.undo()

        gaps = partial.metadata["quarantined"]
        assert len(gaps) == 1
        assert gaps[0]["rate"] == 0.4
        assert gaps[0]["kind"] == "permanent"
        assert "infeasible" in gaps[0]["message"]
        assert {e.accelerator.pruning_rate for e in partial} == {0.0}

        # The partial library still drives the runtime (with a gap log).
        manager = RuntimeManager(partial)
        assert manager.select(workload_ips=10.0) is not None

        # Resume: the quarantined point stays skipped — no retry, no
        # prune calls for it — and the output is unchanged.
        calls = counters(monkeypatch)
        resumed = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path, supervise=FAST)
        assert calls == {"prune": 0, "compile": 0}
        assert resumed.to_json() == partial.to_json()

    def test_transient_exhaustion_is_retried_on_resume(self, tmp_path,
                                                       monkeypatch):
        """'failed' (exhausted transient budget) differs from
        'quarantined': the next resume gives the point another chance."""
        real_prune = design_time.prune_model

        def flaky_prune(model, rate, *args, **kwargs):
            if rate == 0.4:
                raise RuntimeError("injected transient wobble")
            return real_prune(model, rate, *args, **kwargs)

        monkeypatch.setattr(design_time, "prune_model", flaky_prune)
        partial = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path, supervise=FAST)
        monkeypatch.undo()
        assert partial.metadata["quarantined"][0]["kind"] == "unknown"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        statuses = {r["rate"]: r["status"]
                    for r in manifest["points"].values()}
        assert statuses[0.4] == "failed"

        # The flake is gone on the next run: resume completes the sweep.
        healed = LibraryGenerator(tiny_config()).generate(
            point_cache=tmp_path, supervise=FAST)
        baseline = LibraryGenerator(tiny_config()).generate(
            supervise=FAST)
        assert "quarantined" not in healed.metadata
        assert healed.to_json() == baseline.to_json()


@needs_fork
class TestParallelResume:
    def test_workers_resume_matches_serial_baseline(self, tmp_path,
                                                    monkeypatch):
        """Pre-warm a partial cache, then finish the sweep with two
        supervised workers: completed points are not recomputed and the
        merged library matches an uninterrupted serial run."""
        LibraryGenerator(tiny_config(rates=(0.0,))).generate(
            point_cache=tmp_path, supervise=FAST)
        baseline = LibraryGenerator(
            tiny_config(rates=(0.0, 0.4, 0.8))).generate(supervise=FAST)

        cache = PointCache(tmp_path)
        resumed = LibraryGenerator(
            tiny_config(rates=(0.0, 0.4, 0.8), workers=2)).generate(
            point_cache=cache, supervise=FAST)
        assert cache.hits == 1  # the pre-warmed 0.0 point
        assert resumed.to_json() == baseline.to_json()
