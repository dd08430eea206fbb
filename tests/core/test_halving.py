"""Successive-halving search engine tests.

Covers the schedule math (rungs, CLI spec parsing), the Pareto
utilities, promotion semantics, and the end-to-end engine: fidelity-
salted rung artifacts in the point cache, warm reruns that train zero
epochs, byte-identical resume after a real SIGKILL, exhaustive-
equivalence of the PSFP path, and quarantine handling.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import halving as halving_mod
from repro.core.config import AdaPExConfig
from repro.core.design_time import LibraryGenerator
from repro.core.halving import (HalvingConfig, HalvingReport,
                                HalvingSearch, pareto_front, pareto_ranks)
from repro.core.supervise import fork_available
from repro.core.pointcache import PointCache
from repro.core.supervise import SuperviseConfig
from repro.nn.trainer import TrainConfig
from repro.pruning.pruner import PruningError

FAST = SuperviseConfig(retries=0, backoff_s=0.001, poll_interval_s=0.02)


def tiny_config(rates=(0.0, 0.6), criteria=("l1",), schedules=("hard",),
                epochs=2, workers=1):
    cfg = AdaPExConfig.quick(seed=6)
    cfg.train_samples = 128
    cfg.test_samples = 64
    cfg.pruning_rates = list(rates)
    cfg.confidence_thresholds = [0.5]
    cfg.criteria = list(criteria)
    cfg.schedules = list(schedules)
    cfg.include_not_pruned_exits = False
    cfg.include_backbone_variant = False
    cfg.initial_training = TrainConfig(epochs=1, batch_size=64, lr=0.002)
    cfg.retraining = TrainConfig(epochs=epochs, batch_size=64, lr=0.001)
    cfg.parallel_workers = workers
    cfg.__post_init__()
    return cfg


# ----------------------------------------------------------------------
# schedule math
# ----------------------------------------------------------------------
class TestHalvingConfig:
    def test_rung_doubling(self):
        assert HalvingConfig().rungs(8) == [1, 2, 4, 8]
        assert HalvingConfig().rungs(6) == [1, 2, 4, 6]  # capped at R
        assert HalvingConfig(eta=3).rungs(9) == [1, 3, 9]
        assert HalvingConfig(min_epochs=2).rungs(8) == [2, 4, 8]

    def test_degenerate_budgets(self):
        assert HalvingConfig().rungs(1) == [1]
        assert HalvingConfig().rungs(0) == [0]
        assert HalvingConfig(min_epochs=4).rungs(3) == [3]

    def test_validation(self):
        with pytest.raises(ValueError):
            HalvingConfig(min_epochs=0)
        with pytest.raises(ValueError):
            HalvingConfig(eta=1)
        with pytest.raises(ValueError):
            HalvingConfig(extra_keep=-1)

    def test_parse(self):
        assert HalvingConfig.parse("") == HalvingConfig()
        assert HalvingConfig.parse("min_epochs=2,eta=3,extra_keep=0") \
            == HalvingConfig(min_epochs=2, eta=3, extra_keep=0)
        assert HalvingConfig.parse(" eta=4 , ") == HalvingConfig(eta=4)
        assert HalvingConfig.parse("keep_schedule_twins=0") \
            == HalvingConfig(keep_schedule_twins=False)
        for bad in ("eta", "eta=", "eta=x", "workers=2"):
            with pytest.raises(ValueError):
                HalvingConfig.parse(bad)


# ----------------------------------------------------------------------
# Pareto utilities
# ----------------------------------------------------------------------
class TestPareto:
    def test_front_and_ranks(self):
        # (accuracy up, cycles down): A dominates C, B is incomparable.
        scores = [(0.9, 100), (0.8, 50), (0.7, 120), (0.9, 120)]
        assert pareto_front(scores) == [0, 1]
        # D (0.9, 120) still dominates C within the second layer.
        assert pareto_ranks(scores) == [0, 0, 2, 1]

    def test_duplicates_share_a_rank(self):
        assert pareto_ranks([(0.5, 10), (0.5, 10)]) == [0, 0]

    def test_strict_domination_required(self):
        # Equal on both axes: neither dominates.
        assert pareto_ranks([(0.5, 10), (0.5, 10), (0.4, 20)]) \
            == [0, 0, 1]

    def test_chain_ranks(self):
        scores = [(0.9, 10), (0.8, 20), (0.7, 30)]
        assert pareto_ranks(scores) == [0, 1, 2]


def _pt(rate, sched="hard", crit="l1"):
    """A sweep point shaped like the real thing."""
    return (("ee", True), rate, "base", crit, sched)


class TestPromotion:
    def _search(self, **kwargs):
        kwargs.setdefault("keep_schedule_twins", False)
        return HalvingSearch(tiny_config(),
                             halving=HalvingConfig(**kwargs))

    def test_front_always_survives(self):
        # 6-point cohort whose front has 4 points: eta=2 would keep 3,
        # but the whole front plus the margin must survive.
        cohort = [_pt(r / 10) for r in range(6)]
        accs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        cycles = [400, 300, 200, 100, 500, 600]
        scores = {p: {"accuracy": a, "cycles": c}
                  for p, a, c in zip(cohort, accs, cycles)}
        kept = self._search(extra_keep=1)._promote(cohort, scores)
        assert set(kept) >= set(cohort[:4])
        assert len(kept) == 5  # front(4) + extra_keep(1)

    def test_half_kept_when_front_is_small(self):
        cohort = [_pt(r / 10) for r in range(8)]
        scores = {cohort[0]: {"accuracy": 0.9, "cycles": 100}}  # sole front
        for i in range(1, 8):  # strictly dominated tail
            scores[cohort[i]] = {"accuracy": 0.9 - 0.1 * i,
                                 "cycles": 100 + i}
        kept = self._search(extra_keep=0)._promote(cohort, scores)
        assert len(kept) == 4  # ceil(8 / eta)
        assert kept[0] == cohort[0]

    def test_sweep_order_is_preserved(self):
        cohort = [_pt(0.4), _pt(0.3), _pt(0.2), _pt(0.1)]
        accs = [0.1, 0.9, 0.2, 0.8]
        cycles = [400, 100, 300, 200]
        scores = {p: {"accuracy": a, "cycles": c}
                  for p, a, c in zip(cohort, accs, cycles)}
        kept = self._search(extra_keep=0)._promote(cohort, scores)
        # Original cohort order, not rank order.
        assert kept == [cohort[1], cohort[3]]

    def test_never_grows_the_cohort(self):
        cohort = [_pt(0.1), _pt(0.2)]
        scores = {cohort[0]: {"accuracy": 0.9, "cycles": 100},
                  cohort[1]: {"accuracy": 0.8, "cycles": 50}}
        kept = self._search(extra_keep=10)._promote(cohort, scores)
        assert kept == cohort

    def test_schedule_twins_promoted_together(self):
        """A kept point's schedule twin (identical bitstream) rides
        along even when its own low-fidelity rank would cut it."""
        cohort = [_pt(0.2, "hard"), _pt(0.2, "psfp"),
                  _pt(0.8, "hard"), _pt(0.8, "psfp")]
        accs = [0.9, 0.3, 0.8, 0.2]    # psfp twins rank last...
        cycles = [300, 300, 100, 100]  # ...and tie their twin on cycles
        scores = {p: {"accuracy": a, "cycles": c}
                  for p, a, c in zip(cohort, accs, cycles)}
        with_twins = HalvingSearch(
            tiny_config(), halving=HalvingConfig(extra_keep=0))
        assert with_twins._promote(cohort, scores) == cohort
        without = self._search(extra_keep=0)
        assert without._promote(cohort, scores) == [cohort[0], cohort[2]]
        # The run loop drops protection for the expensive upper rungs.
        assert with_twins._promote(cohort, scores, protect_twins=False) \
            == [cohort[0], cohort[2]]


class TestHalvingReport:
    def test_epoch_reduction(self):
        assert HalvingReport(epochs_total=40,
                             exhaustive_epochs=100).epoch_reduction \
            == pytest.approx(2.5)
        assert HalvingReport().epoch_reduction == 1.0
        assert HalvingReport(exhaustive_epochs=10).epoch_reduction \
            == float("inf")
        assert "epoch_reduction" in HalvingReport().to_dict()


# ----------------------------------------------------------------------
# the engine, end to end
# ----------------------------------------------------------------------
class TestHalvingEndToEnd:
    def test_requires_a_point_cache(self):
        with pytest.raises(ValueError, match="point cache"):
            HalvingSearch(tiny_config()).run(None)

    def test_search_produces_survivor_library(self, tmp_path):
        cfg = tiny_config(rates=(0.0, 0.4, 0.8), criteria=("l1", "fpgm"))
        search = HalvingSearch(cfg, halving=HalvingConfig(extra_keep=0))
        library = search.run(tmp_path, supervise=FAST)
        report = search.last_report

        # Rungs [1, 2] over 5 points (rate 0 is canonicalized): the
        # first rung costs one epoch per trainable point, the second one
        # more per survivor — strictly fewer than exhaustive 2 * 4.
        assert [r["fidelity"] for r in report.rungs] == [1, 2]
        assert report.rungs[0]["cohort"] == 5
        assert report.exhaustive_epochs == 8
        assert 0 < report.epochs_total < report.exhaustive_epochs
        assert report.epochs_this_run == report.epochs_total
        assert report.epoch_reduction > 1.0

        # Survivors are fully characterized entries; metadata records
        # the deterministic search trace.
        assert len(library) > 0
        assert library.metadata["halving"]["rungs"] == report.rungs
        assert library.metadata["criteria"] == ["l1", "fpgm"]
        rates = {e.accelerator.pruning_rate for e in library}
        assert rates <= {0.0, 0.4, 0.8}

        # Rung artifacts live in the cache: fidelity-salted aux scores
        # and weight checkpoints, plus full entries for survivors.
        cache = PointCache(tmp_path)
        assert list(cache.root.glob("aux_*.json"))
        assert list(cache.root.glob("states/state_*.npz"))
        assert len(cache) == len(report.survivors)

    def test_warm_rerun_trains_nothing_and_is_byte_identical(
            self, tmp_path):
        cfg = tiny_config(rates=(0.0, 0.4, 0.8), criteria=("l1", "fpgm"))
        first = HalvingSearch(cfg, halving=HalvingConfig(extra_keep=0))
        cold = first.run(tmp_path, supervise=FAST)
        assert first.last_report.epochs_this_run > 0

        second = HalvingSearch(tiny_config(rates=(0.0, 0.4, 0.8),
                                           criteria=("l1", "fpgm")),
                               halving=HalvingConfig(extra_keep=0))
        warm = second.run(tmp_path, supervise=FAST)
        assert second.last_report.epochs_this_run == 0
        assert second.last_report.epochs_total \
            == first.last_report.epochs_total
        assert warm.to_json() == cold.to_json()

    def test_psfp_survivors_match_the_exhaustive_sweep(self, tmp_path):
        """The PSFP path is per-epoch in both engines, so a survivor's
        final characterization must be bit-identical to the exhaustive
        sweep's — the halving rungs merely partition the same epoch
        sequence."""
        cfg = tiny_config(schedules=("psfp",))
        search = HalvingSearch(cfg,
                               halving=HalvingConfig(extra_keep=10))
        halved = search.run(tmp_path, supervise=FAST)
        # extra_keep >> cohort: nothing is eliminated, all points reach
        # the full budget.
        assert len(search.last_report.survivors) == 2

        exhaustive = LibraryGenerator(
            tiny_config(schedules=("psfp",))).generate(supervise=FAST)
        assert [e.to_dict() for e in halved] \
            == [e.to_dict() for e in exhaustive]

    def test_precision_twins_share_rung_training(self, tmp_path):
        """INT8 is post-training quantization — an evaluation-only
        transform — so precision twins train bit-identical weights. The
        rung checkpoints are precision-stripped and the epochs are paid
        once per (variant, rate, criterion, schedule) train group."""
        cfg = tiny_config()
        cfg.precisions = ["base", "int8"]
        # Full-width W8A8 exceeds the device; shrink the modeled width
        # so both precisions fit at every rate.
        cfg.resource_width_scale = 0.25
        cfg.__post_init__()
        search = HalvingSearch(cfg, halving=HalvingConfig(extra_keep=10))
        library = search.run(tmp_path, supervise=FAST)
        report = search.last_report

        # 4 points (2 rates x 2 precisions) but a single trainable
        # group: the full budget is paid once, not once per precision.
        assert report.rungs[0]["cohort"] == 4
        assert report.quarantined == 0
        assert report.epochs_total == cfg.retraining.epochs
        assert {e.accelerator.precision for e in library} \
            == {"base", "int8"}

        cache = PointCache(tmp_path)
        # Scores stay precision-salted (one per point per rung);
        # checkpoints are shared (one per train group per rung).
        assert len(list(cache.root.glob("aux_*.json"))) == 8
        assert len(list(cache.root.glob("states/state_*.npz"))) == 4

    def test_top_rung_is_not_scored(self, tmp_path, monkeypatch):
        """Only a promotion reads a rung's accuracy and none follows the
        top rung: its points keep cycles, fidelity and epochs, and no
        nn-forward scoring runs for them."""
        scored = []
        sweep = halving_mod.cascade_sweep
        monkeypatch.setattr(halving_mod, "cascade_sweep",
                            lambda *a, **k: scored.append(1) or sweep(*a, **k))
        search = HalvingSearch(tiny_config(), halving=HalvingConfig(
            extra_keep=10))
        search.run(tmp_path, supervise=FAST)
        assert [r["fidelity"] for r in search.last_report.rungs] == [1, 2]

        scores = [json.loads(p.read_text())["payload"]
                  for p in PointCache(tmp_path).root.glob("aux_*.json")]
        by_rung = {f: [s for s in scores if s["fidelity"] == f]
                   for f in (1, 2)}
        assert len(by_rung[1]) == len(by_rung[2]) == 2
        for score in scores:
            assert {"cycles", "fidelity", "epochs"} <= score.keys()
        assert all("accuracy" in s for s in by_rung[1])
        assert not any("accuracy" in s for s in by_rung[2])
        assert len(scored) == len(by_rung[1])

    def test_zero_retrain_budget_single_rung(self, tmp_path):
        cfg = tiny_config(epochs=0)
        search = HalvingSearch(cfg)
        library = search.run(tmp_path, supervise=FAST)
        report = search.last_report
        assert [r["fidelity"] for r in report.rungs] == [0]
        assert report.epochs_total == 0
        assert report.exhaustive_epochs == 0
        assert len(library) > 0


def twin_config(workers=1):
    """``base``/``int8`` twins at both rates over rungs [1, 2]: every
    rung runs two leads and then two followers."""
    cfg = tiny_config(workers=workers)
    cfg.precisions = ["base", "int8"]
    cfg.resource_width_scale = 0.25  # so the W8A8 twin fits the device
    cfg.__post_init__()
    return cfg


class TestPrecisionTwinStages:
    def search(self, cache, workers=1):
        engine = HalvingSearch(twin_config(workers),
                               halving=HalvingConfig(extra_keep=10))
        return engine.run(cache, supervise=FAST), engine.last_report

    @pytest.mark.skipif(not fork_available(),
                        reason="needs fork start method")
    def test_two_workers_match_serial(self, tmp_path):
        """Forked leads, followers and the final stage give the serial
        library, byte for byte, and the same epoch count."""
        serial, serial_report = self.search(tmp_path / "serial")
        forked, forked_report = self.search(tmp_path / "forked", workers=2)
        assert [r["fidelity"] for r in serial_report.rungs] == [1, 2]
        assert len(serial_report.survivors) == 4
        assert forked.to_json() == serial.to_json()
        assert forked_report.epochs_total == serial_report.epochs_total
        assert forked_report.epochs_this_run \
            == serial_report.epochs_this_run

    def test_resumed_follower_reuses_its_leads_checkpoint(self, tmp_path):
        """A run stopped after a lead's rung score but before its
        follower's resumes without training the follower: it reuses the
        checkpoint the lead persisted, as an uninterrupted run does."""
        full, full_report = self.search(tmp_path)
        follower = PointCache.point_key(
            twin_config().point_cache_key(), "ee", True, 0.6, "int8",
            fidelity="e1")
        PointCache(tmp_path).aux_path_for(follower).unlink()

        resumed, report = self.search(tmp_path)
        assert report.epochs_this_run == 0
        assert report.epochs_total == full_report.epochs_total
        assert resumed.to_json() == full.to_json()


class TestHalvingQuarantine:
    def test_permanent_failure_is_quarantined_and_stays_skipped(
            self, tmp_path, monkeypatch):
        real_prune = halving_mod.prune_model

        def poisoned_prune(model, rate, *args, **kwargs):
            if rate == 0.6:
                raise PruningError("injected: rate 0.6 is infeasible")
            return real_prune(model, rate, *args, **kwargs)

        monkeypatch.setattr(halving_mod, "prune_model", poisoned_prune)
        search = HalvingSearch(tiny_config())
        partial = search.run(tmp_path, supervise=FAST)
        monkeypatch.undo()

        gaps = partial.metadata["quarantined"]
        assert len(gaps) == 1
        assert gaps[0]["rate"] == 0.6
        assert gaps[0]["kind"] == "permanent"
        assert search.last_report.quarantined == 1
        assert search.last_report.epochs_total == 0  # failed pre-training
        assert {e.accelerator.pruning_rate for e in partial} == {0.0}

        # Resume: the quarantined point is skipped without a retry (the
        # poison is gone, so a retry would have succeeded and changed
        # the library).
        calls = {"n": 0}

        def counting_prune(*args, **kwargs):
            calls["n"] += 1
            return real_prune(*args, **kwargs)

        monkeypatch.setattr(halving_mod, "prune_model", counting_prune)
        resumed = HalvingSearch(tiny_config()).run(tmp_path,
                                                   supervise=FAST)
        assert calls["n"] == 0  # everything cached or quarantined
        assert resumed.to_json() == partial.to_json()


_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.config import AdaPExConfig
from repro.core.halving import HalvingConfig, HalvingSearch
from repro.nn.trainer import TrainConfig

cfg = AdaPExConfig.quick(seed=6)
cfg.train_samples = 128
cfg.test_samples = 64
cfg.pruning_rates = [0.0, 0.4, 0.8]
cfg.confidence_thresholds = [0.5]
cfg.criteria = ["l1", "fpgm"]
cfg.include_not_pruned_exits = False
cfg.include_backbone_variant = False
cfg.initial_training = TrainConfig(epochs=1, batch_size=64, lr=0.002)
cfg.retraining = TrainConfig(epochs=2, batch_size=64, lr=0.001)
cfg.__post_init__()
HalvingSearch(cfg, halving=HalvingConfig(extra_keep=0)).run(
    {cache!r}, progress=print)
"""


class TestSigkillResume:
    def test_sigkill_mid_rung_resume_is_byte_identical(self, tmp_path):
        """SIGKILL a real halving run as soon as the first rung scores
        land on disk; the resumed search must reuse every persisted rung
        artifact and produce a library byte-identical to an
        uninterrupted run."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        cache_dir = tmp_path / "cache"
        script = _CHILD_SCRIPT.format(src=src, cache=str(cache_dir))
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("aux_*.json"))) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("child halving run exited before kill")
                time.sleep(0.02)
            else:
                pytest.fail("no rung score appeared within 240s")
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()

        # Every surviving artifact parses: aux scores, states, manifest
        # are all written atomically.
        aux = list(cache_dir.glob("aux_*.json"))
        assert aux
        for path in aux:
            json.loads(path.read_text())
        cached_epochs = sum(
            json.loads(p.read_text())["payload"].get("epochs", 0)
            for p in aux)

        resume_cfg = tiny_config(rates=(0.0, 0.4, 0.8),
                                 criteria=("l1", "fpgm"))
        resume = HalvingSearch(resume_cfg,
                               halving=HalvingConfig(extra_keep=0))
        resumed = resume.run(cache_dir, supervise=FAST)

        baseline_cfg = tiny_config(rates=(0.0, 0.4, 0.8),
                                   criteria=("l1", "fpgm"))
        baseline = HalvingSearch(baseline_cfg,
                                 halving=HalvingConfig(extra_keep=0))
        full = baseline.run(tmp_path / "fresh", supervise=FAST)

        # Zero recomputation: the resume trained exactly the epochs the
        # child never persisted.
        assert resume.last_report.epochs_this_run \
            == baseline.last_report.epochs_total - cached_epochs
        assert resume.last_report.epochs_total \
            == baseline.last_report.epochs_total
        assert resumed.to_json() == full.to_json()
