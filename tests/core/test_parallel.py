"""Process-pool tests: the ordered ``SupervisedPool.map`` that serving
and fleet campaigns run on, failures that raise instead of returning
partial results, and the determinism regression — parallel sweeps and
simulations must be bit-identical to serial ones, on state the workers
inherit rather than rebuild."""

import multiprocessing as mp
import os
import threading
from unittest import mock

import numpy as np
import pytest

from repro.core import AdaPExConfig, LibraryGenerator, PhaseTimer
from repro.core import design_time
from repro.core import supervise
from repro.core.supervise import (SupervisedPool, SuperviseConfig,
                                  fork_available, resolve_workers)
from repro.edge.server import simulate_policy
from repro.fleet import FleetConfig, cluster, make_tenants, simulate_fleet
from repro.ir import engine
from repro.nn.trainer import EVAL_BATCH
from repro.runtime import Library, RuntimeManager
from tests.conftest import make_entry

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")
STRICT = SuperviseConfig(retries=0)


def _square(x):
    return x * x


def _blas_threads(_):
    return [get() for get, _ in supervise._openblas_thread_controls()]


def _boom(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


_fleet_task = cluster._fleet_task


def _exit_on_server_one(server_id):
    if server_id == 1:
        os._exit(3)  # simulates a segfault / OOM kill
    return _fleet_task(server_id)


class _FailingTrace:
    """A fixed arrival trace whose realization for one seed raises."""

    duration_s = 2.0
    nominal_ips = 20.0

    def __init__(self, bad_seed):
        self.bad_seed = bad_seed

    def arrival_times(self, seed=0):
        if seed == self.bad_seed:
            raise ValueError("trace unreadable")
        return np.linspace(0.0, 1.9, 38)


def _serving_library():
    lib = Library()
    lib.add(make_entry(rate=0.0, ct=0.9, acc=0.90, ips=40.0,
                       exit_lats=(1 / 40,) * 3, rates=(0, 0, 1.0)))
    lib.add(make_entry(rate=0.8, ct=0.1, acc=0.82, ips=200.0,
                       exit_lats=(1 / 200,) * 3, rates=(1.0, 0, 0)))
    return lib


def tiny_config(workers=1, seed=5):
    """One-variant, two-rate config: seconds-scale."""
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
    """``SupervisedPool.map``, serial and forked."""

    def test_serial_path_ordered(self):
        assert SupervisedPool(1, STRICT).map(_square, [3, 1, 2]) \
            == [9, 1, 4]

    @needs_fork
    def test_parallel_path_ordered(self):
        assert SupervisedPool(2, STRICT).map(_square, range(8)) \
            == [x * x for x in range(8)]

    def test_progress_reports_every_item(self):
        messages = []
        SupervisedPool(1, STRICT, progress=messages.append,
                       label=lambda x: f"item{x}").map(_square, [1, 2, 3])
        assert len(messages) == 3
        assert any("item2" in m and "/3" in m for m in messages)

    @needs_fork
    def test_progress_reports_in_parallel(self):
        messages = []
        SupervisedPool(2, STRICT, progress=messages.append).map(
            _square, [1, 2, 3, 4])
        assert len(messages) == 4

    def test_worker_error_propagates(self):
        with pytest.raises(RuntimeError, match="item2 failed.*boom") as err:
            SupervisedPool(1, STRICT, label=lambda x: f"item{x}").map(
                _boom, [1, 2, 3])
        assert str(err.value.__context__) == "boom"

    @needs_fork
    def test_worker_error_propagates_parallel(self):
        with pytest.raises(RuntimeError, match="item2 failed.*boom") as err:
            SupervisedPool(2, STRICT, label=lambda x: f"item{x}").map(
                _boom, [1, 2, 3])
        # The worker's exception, with its remote traceback, is chained.
        assert str(err.value.__context__) == "boom"
        assert "_boom" in str(err.value.__context__.__cause__)
        assert not mp.active_children()

    def test_empty_items(self):
        assert SupervisedPool(4, STRICT).map(_square, []) == []

    @needs_fork
    @pytest.mark.skipif(not _blas_threads(None), reason="needs OpenBLAS")
    def test_workers_share_the_cores_for_blas(self):
        """Each forked worker lowers OpenBLAS's pool to its share of the
        cores; the parent keeps its own."""
        before = _blas_threads(None)
        share = max(1, (os.cpu_count() or 1) // 2)
        assert SupervisedPool(2, STRICT).map(_blas_threads, [0, 1]) \
            == [[min(n, share) for n in before]] * 2
        assert _blas_threads(None) == before


@needs_fork
class TestFailedCampaignsRaise:
    """A failed serving or fleet run raises and leaves no worker alive."""

    def test_failing_run_names_its_seed(self):
        policy = RuntimeManager(_serving_library())
        with pytest.raises(RuntimeError, match="run seed=12 failed.*"
                           "trace unreadable"):
            simulate_policy(policy, runs=4, workload=_FailingTrace(12),
                            base_seed=10, parallel=2)
        assert not mp.active_children()

    def test_dead_fleet_worker_fails_the_campaign(self, monkeypatch):
        monkeypatch.setattr(cluster, "_fleet_task", _exit_on_server_one)
        config = FleetConfig(num_servers=4, rack_size=2, duration_s=2.0)
        tenants = make_tenants(8, cameras=2, ips_per_camera=20.0)
        with pytest.raises(RuntimeError,
                           match=r"server \d failed.*WorkerCrashError"):
            simulate_fleet(_serving_library(), tenants, config, workers=2)
        assert not mp.active_children()


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestGenerateDeterminism:
    def test_parallel_identical_to_serial(self):
        serial = LibraryGenerator(tiny_config(workers=1)).generate()
        parallel = LibraryGenerator(tiny_config(workers=4)).generate()
        assert [e.to_dict() for e in serial] \
            == [e.to_dict() for e in parallel]
        assert serial.metadata == parallel.metadata

    def test_forked_workers_rebuild_nothing(self, monkeypatch):
        """Workers inherit the parent's datasets, trained bases and
        contexts: building a dataset or a model in one fails its points."""
        serial = LibraryGenerator(tiny_config(workers=1)).generate()
        parent = os.getpid()

        def parent_only(fn):
            def guarded(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError(f"{fn.__name__} ran in a worker")
                return fn(*args, **kwargs)
            return guarded

        monkeypatch.setattr(design_time, "make_dataset",
                            parent_only(design_time.make_dataset))
        monkeypatch.setattr(LibraryGenerator, "_build",
                            parent_only(LibraryGenerator._build))
        parallel = LibraryGenerator(tiny_config(workers=2)).generate()
        assert "quarantined" not in parallel.metadata
        assert parallel.to_json() == serial.to_json()

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
