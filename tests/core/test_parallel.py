"""Parallel execution backend tests: the ordered-map primitive plus the
determinism regression — parallel sweeps and simulations must be
bit-identical to serial ones."""

import threading
from unittest import mock

import pytest

from repro.core import AdaPExConfig, LibraryGenerator, PhaseTimer
from repro.core.parallel import fork_available, parallel_map, resolve_workers
from repro.ir import engine
from repro.nn.trainer import EVAL_BATCH


def _square(x):
    return x * x


def _boom(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


def tiny_config(workers=1, seed=5):
    """One-variant, two-rate config: seconds-scale even when each worker
    re-initializes its datasets and twins."""
    cfg = AdaPExConfig.quick(seed=seed)
    cfg.train_samples = 192
    cfg.test_samples = 96
    cfg.pruning_rates = [0.0, 0.4]
    cfg.confidence_thresholds = [0.5]
    cfg.include_not_pruned_exits = False
    cfg.include_backbone_variant = False
    cfg.parallel_workers = workers
    return cfg


class TestResolveWorkers:
    def test_true_means_cpu_count(self):
        assert resolve_workers(True) >= 1

    def test_falsy_means_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(False) == 1
        assert resolve_workers(0) == 1

    def test_int_passthrough(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(-2) == 1


class TestParallelMap:
    def test_serial_path_ordered(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_path_ordered(self):
        assert parallel_map(_square, list(range(8)), workers=2) \
            == [x * x for x in range(8)]

    def test_progress_reports_every_item(self):
        messages = []
        parallel_map(_square, [1, 2, 3], workers=1,
                     progress=messages.append, label=lambda x: f"item{x}")
        assert len(messages) == 3
        assert any("item2" in m and "/3" in m for m in messages)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_progress_reports_in_parallel(self):
        messages = []
        parallel_map(_square, [1, 2, 3, 4], workers=2,
                     progress=messages.append)
        assert len(messages) == 4

    def test_worker_error_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2, 3], workers=1)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_error_propagates_parallel(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2, 3], workers=2)

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestGenerateDeterminism:
    def test_parallel_identical_to_serial(self):
        serial = LibraryGenerator(tiny_config(workers=1)).generate()
        parallel = LibraryGenerator(tiny_config(workers=4)).generate()
        assert [e.to_dict() for e in serial] \
            == [e.to_dict() for e in parallel]
        assert serial.metadata == parallel.metadata

    def test_parallel_run_reports_progress(self):
        messages = []
        LibraryGenerator(tiny_config(workers=4)).generate(
            progress=messages.append)
        # Base training, one line per design point, and the completion
        # line must all come through even on the process-pool path.
        assert any("training base model" in m for m in messages)
        assert sum("pruning rate" in m for m in messages) == 2
        assert any("library complete" in m for m in messages)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestStepMemoIdentity:
    """The quick-profile library does not depend on the step memo: not
    on its budget, and not on which points a worker saw before."""

    def test_library_independent_of_memo(self, quick_library):
        with mock.patch.object(engine, "MEMO_BUDGET", 0):
            no_memo = LibraryGenerator(AdaPExConfig.quick(seed=1)).generate()
        config = AdaPExConfig.quick(seed=1)
        config.parallel_workers = 2
        parallel = LibraryGenerator(config).generate()
        assert no_memo.to_json() == quick_library.to_json()
        assert parallel.to_json() == quick_library.to_json()

    def test_small_budget_runs_no_more_steps(self):
        """The serial sweep runs each trained base's points rate-major,
        so a step another point shares is still held when it is asked
        for: at half the default budget the quick sweep runs no more
        engine steps than at the default."""
        generator = LibraryGenerator(AdaPExConfig.quick(seed=1))
        steps = []
        for budget in (engine.MEMO_BUDGET, engine.MEMO_BUDGET // 2):
            timer = PhaseTimer()
            with mock.patch.object(engine, "MEMO_BUDGET", budget):
                generator.generate(timer=timer)
            steps.append(
                timer.as_dict()["phases"]["engine_memo_miss"]["count"])
        assert steps[1] <= steps[0], steps

    def test_memo_only_where_points_share_steps(self):
        # Retrained points carry their own weights, and a test set of
        # several evaluation batches evicts each batch before the next
        # plan runs it: neither sweep can be served a step.
        assert LibraryGenerator(AdaPExConfig.quick())._sweep_memo() \
            is not None
        retrained = AdaPExConfig.quick()
        retrained.retraining.epochs = 1
        assert LibraryGenerator(retrained)._sweep_memo() is None
        assert LibraryGenerator(AdaPExConfig.paper())._sweep_memo() is None
        batched = AdaPExConfig.quick()
        batched.test_samples = EVAL_BATCH + 1
        assert LibraryGenerator(batched)._sweep_memo() is None


class TestConcurrentGeneratorState:
    def test_base_model_trained_once_under_racing_threads(self):
        cfg = tiny_config()
        gen = LibraryGenerator(cfg)
        fits = []
        original_fit = None

        from repro.nn.trainer import Trainer
        original_fit = Trainer.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(self)
            return original_fit(self, *args, **kwargs)

        Trainer.fit = counting_fit
        try:
            exits_cfg = cfg.exits.with_pruned(True)
            threads = [threading.Thread(
                target=gen.train_base_model, args=(exits_cfg,))
                for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            Trainer.fit = original_fit
        assert len(fits) == 1
        assert len(gen._base_cache) == 1

    def test_datasets_built_once_under_racing_threads(self):
        gen = LibraryGenerator(tiny_config())
        seen = []
        threads = [threading.Thread(
            target=lambda: seen.append(gen.datasets()[0]))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(d is seen[0] for d in seen)
