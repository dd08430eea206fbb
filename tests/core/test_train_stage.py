"""The sweep's train stage: every base model is fitted before any
hardware twin exists, the fits run as pool tasks with two workers, and
the checkpoint manifest is saved per stage rather than per point."""

import multiprocessing as mp
import os
import tracemalloc

import pytest

from repro.core.checkpoint import SweepManifest
from repro.core.config import AdaPExConfig
from repro.core.design_time import LibraryGenerator
from repro.core.errors import TrainingDivergedError
from repro.core.halving import HalvingSearch
from repro.core.instrument import PhaseTimer
from repro.core.supervise import SuperviseConfig, fork_available
from repro.nn.trainer import TrainConfig, Trainer
from repro.pruning.pruner import PruningError

FAST = SuperviseConfig(retries=0, backoff_s=0.001, poll_interval_s=0.02)
needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="needs fork start method")


def two_topology_config(rates=(0.0, 0.4), workers=1):
    """The early-exit and the backbone variant: two base fits."""
    cfg = AdaPExConfig.quick(seed=4)
    cfg.train_samples = 192
    cfg.test_samples = 96
    cfg.pruning_rates = list(rates)
    cfg.confidence_thresholds = [0.5]
    cfg.include_not_pruned_exits = False
    cfg.parallel_workers = workers
    return cfg


def watch_base_fits(monkeypatch, gen):
    """Record, for every base fit in this process, how many hardware
    twins existed when it started."""
    twins_at_fit = []
    real_fit = Trainer.fit

    def watching_fit(self, *args, **kwargs):
        if self.config is gen.config.initial_training:
            twins_at_fit.append(len(gen._hw_cache))
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", watching_fit)
    return twins_at_fit


class TestStageOrder:
    def test_no_twin_exists_while_a_base_trains(self, monkeypatch):
        gen = LibraryGenerator(two_topology_config())
        twins_at_fit = watch_base_fits(monkeypatch, gen)
        gen.generate(supervise=FAST)
        assert twins_at_fit == [0, 0]
        assert len(gen._hw_cache) == 2

    def test_halving_trains_every_base_before_any_twin(self, tmp_path,
                                                       monkeypatch):
        cfg = two_topology_config(rates=(0.0, 0.6))
        cfg.retraining = TrainConfig(epochs=2, batch_size=64, lr=0.001)
        search = HalvingSearch(cfg)
        twins_at_fit = watch_base_fits(monkeypatch, search.generator)
        search.run(tmp_path, supervise=FAST)
        assert twins_at_fit == [0, 0]

    def test_sweep_peak_is_the_early_exit_fit(self):
        """A quick sweep's traced peak is its early-exit fit's own, within
        2 MB: no hardware twin (nor its gradients) sits beside a fit."""
        cfg = AdaPExConfig.quick(seed=1)
        tracemalloc.start()
        try:
            LibraryGenerator(cfg).train_base_model(cfg.exits)
            fit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.clear_traces()
            tracemalloc.reset_peak()
            LibraryGenerator(cfg).generate()
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep_peak <= fit_peak + 2 * 2**20, (sweep_peak, fit_peak)


@needs_fork
class TestParallelFits:
    def test_two_workers_fit_nothing_in_the_parent(self, monkeypatch):
        serial = LibraryGenerator(two_topology_config()).generate()
        parent = os.getpid()
        parent_fits = []
        real_fit = Trainer.fit

        def counting_fit(self, *args, **kwargs):
            if os.getpid() == parent:
                parent_fits.append(1)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", counting_fit)
        messages = []
        timer = PhaseTimer()
        parallel = LibraryGenerator(two_topology_config(workers=2)).generate(
            progress=messages.append, timer=timer)
        assert parent_fits == []
        assert parallel.to_json() == serial.to_json()
        assert sum("training base model" in m for m in messages) == 2
        assert timer.count("train") == 2

    def test_a_diverged_fit_fails_the_run(self, monkeypatch):
        parent = os.getpid()
        real_fit = Trainer.fit

        def diverging_fit(self, *args, **kwargs):
            if os.getpid() != parent:
                raise TrainingDivergedError("non-finite joint loss (nan)")
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", diverging_fit)
        gen = LibraryGenerator(two_topology_config(workers=2))
        with pytest.raises(RuntimeError,
                           match="training base model.*TrainingDivergedError"):
            gen.generate(supervise=FAST)
        assert not gen._base_cache
        assert not mp.active_children()


class TestManifestSaves:
    @staticmethod
    def count_saves(monkeypatch):
        saves = []
        real_save = SweepManifest.save

        def counting_save(self):
            saves.append(1)
            return real_save(self)

        monkeypatch.setattr(SweepManifest, "save", counting_save)
        return saves

    def test_a_three_point_sweep_saves_twice(self, tmp_path, monkeypatch):
        cfg = two_topology_config(rates=(0.0, 0.4, 0.8))
        cfg.include_backbone_variant = False
        saves = self.count_saves(monkeypatch)
        LibraryGenerator(cfg).generate(point_cache=tmp_path, supervise=FAST)
        assert len(saves) <= 2
        manifest = SweepManifest.open(tmp_path / "manifest.json",
                                      cfg.point_cache_key())
        assert manifest.counts()["done"] == 3

    def test_each_failure_adds_one_save(self, tmp_path, monkeypatch):
        from repro.core import design_time

        cfg = two_topology_config(rates=(0.0, 0.4, 0.8))
        cfg.include_backbone_variant = False
        real_prune = design_time.prune_model

        def failing_prune(model, rate, *args, **kwargs):
            if rate == 0.4:
                raise PruningError("injected infeasible fold")
            return real_prune(model, rate, *args, **kwargs)

        monkeypatch.setattr(design_time, "prune_model", failing_prune)
        saves = self.count_saves(monkeypatch)
        library = LibraryGenerator(cfg).generate(point_cache=tmp_path,
                                                 supervise=FAST)
        assert len(library.metadata["quarantined"]) == 1
        assert len(saves) <= 3
