"""Supervised pool tests: retries with backoff, permanent-error
quarantine, and — on the parallel path — worker crash and wall-clock
timeout containment. Worker payloads are module-level functions so the
fork-based pool can pickle them."""

import os
import time

import pytest

from repro.core.errors import PermanentError, TransientError
from repro.core.supervise import fork_available
from repro.core.supervise import (FailedPoint, SupervisedPool,
                                  SuperviseConfig, SweepOutcome)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="needs fork start method")

FAST = SuperviseConfig(retries=2, backoff_s=0.001, backoff_cap_s=0.002,
                       poll_interval_s=0.01)


# ----------------------------------------------------------------------
# module-level payloads (picklable into worker processes)
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _crash_on_negative(x):
    if x < 0:
        os._exit(17)  # simulates a segfault / OOM kill
    return x * 2


def _hang_on_negative(x):
    if x < 0:
        time.sleep(60)
    return x * 2


def _slow_double(x):
    time.sleep(0.4)
    return x * 2


def _permanent_on_negative(x):
    if x < 0:
        raise PermanentError(f"point {x} is structurally infeasible")
    return x * 2


def _fail_until_marker(path):
    """Transient failure on the first call, success once the marker
    exists — models a flaky unit that recovers on retry."""
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write("seen")
        raise TransientError("flaky first attempt")
    return "recovered"


class TestSuperviseConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            SuperviseConfig(timeout_s=0)
        with pytest.raises(ValueError):
            SuperviseConfig(retries=-1)
        with pytest.raises(ValueError):
            SuperviseConfig(backoff_s=-0.1)
        with pytest.raises(ValueError):
            SuperviseConfig(poll_interval_s=0)

    def test_backoff_grows_and_caps(self):
        cfg = SuperviseConfig(backoff_s=0.1, backoff_cap_s=0.35)
        assert cfg.backoff_for(1) == pytest.approx(0.1)
        assert cfg.backoff_for(2) == pytest.approx(0.2)
        assert cfg.backoff_for(3) == pytest.approx(0.35)
        assert cfg.backoff_for(10) == pytest.approx(0.35)


class TestFailedPoint:
    def test_roundtrip_and_reason(self):
        failed = FailedPoint(label="ee@0.4", kind="timeout",
                             error_type="WorkTimeoutError",
                             message="exceeded budget", attempts=3)
        assert FailedPoint.from_dict(failed.to_dict()) == failed
        assert "timeout failure after 3 attempt(s)" in failed.reason()
        assert "exceeded budget" in failed.reason()


class TestSerialSupervision:
    def test_results_are_item_ordered(self):
        out = SupervisedPool(workers=1, config=FAST).run(_double,
                                                         [3, 1, 2])
        assert isinstance(out, SweepOutcome)
        assert out.ok and out.results == [6, 2, 4]
        assert out.completed() == 3

    def test_empty_items(self):
        out = SupervisedPool(workers=1, config=FAST).run(_double, [])
        assert out.ok and out.results == []

    def test_transient_failure_is_retried_then_succeeds(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("first attempt fails")
            return x

        out = SupervisedPool(workers=1, config=FAST).run(flaky, ["a"])
        assert out.ok and out.results == ["a"]
        assert out.retries == 1 and calls["n"] == 2

    def test_retry_budget_exhaustion_quarantines(self):
        def always_fails(x):
            raise TransientError("never recovers")

        out = SupervisedPool(workers=1, config=FAST).run(always_fails,
                                                         ["a", "b"])
        assert not out.ok
        assert out.results == [None, None]
        assert set(out.failures) == {0, 1}
        failed = out.failures[0]
        assert failed.kind == "transient"
        assert failed.attempts == FAST.retries + 1
        assert out.retries == 2 * FAST.retries

    def test_permanent_error_skips_retries(self):
        calls = {"n": 0}

        def permanent(x):
            calls["n"] += 1
            raise PermanentError("infeasible")

        out = SupervisedPool(workers=1, config=FAST).run(permanent, ["a"])
        assert calls["n"] == 1  # no retries burned on a permanent error
        assert out.failures[0].kind == "permanent"
        assert out.retries == 0

    def test_untyped_error_is_retried_as_unknown(self):
        def untyped(x):
            raise RuntimeError("who knows")

        out = SupervisedPool(workers=1, config=FAST).run(untyped, ["a"])
        assert out.failures[0].kind == "unknown"
        assert out.failures[0].attempts == FAST.retries + 1

    def test_other_items_survive_a_quarantine(self):
        out = SupervisedPool(workers=1, config=FAST).run(
            _permanent_on_negative, [1, -1, 3])
        assert out.results == [2, None, 6]
        assert set(out.failures) == {1}

    def test_callbacks_fire(self):
        done, failed = [], []
        out = SupervisedPool(workers=1, config=FAST).run(
            _permanent_on_negative, [1, -1],
            on_result=lambda i, item, r: done.append((i, item, r)),
            on_failure=lambda i, item, f: failed.append((i, item, f.kind)))
        assert done == [(0, 1, 2)]
        assert failed == [(1, -1, "permanent")]
        assert not out.ok

    def test_keyboard_interrupt_is_never_swallowed(self):
        def interrupted(x):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SupervisedPool(workers=1, config=FAST).run(interrupted, [1])

    def test_progress_reports_retry_and_quarantine(self):
        messages = []

        def always_fails(x):
            raise TransientError("boom")

        SupervisedPool(workers=1, config=FAST,
                       progress=messages.append,
                       label=lambda x: f"unit-{x}").run(always_fails, [7])
        text = "\n".join(messages)
        assert "unit-7" in text
        assert "retry 1/" in text and "quarantined" in text


@needs_fork
class TestParallelSupervision:
    def test_results_are_item_ordered(self):
        out = SupervisedPool(workers=4, config=FAST).run(
            _double, list(range(8)))
        assert out.ok and out.results == [x * 2 for x in range(8)]

    def test_worker_crash_quarantines_only_the_culprit(self):
        out = SupervisedPool(workers=2, config=FAST).run(
            _crash_on_negative, [1, -1, 2, 3])
        assert out.results == [2, None, 4, 6]
        assert set(out.failures) == {1}
        failed = out.failures[1]
        assert failed.kind == "crash"
        assert failed.error_type == "WorkerCrashError"
        assert failed.attempts == FAST.retries + 1

    def test_timeout_quarantines_only_the_hung_unit(self):
        cfg = SuperviseConfig(timeout_s=0.4, retries=0,
                              backoff_s=0.001, poll_interval_s=0.02)
        out = SupervisedPool(workers=2, config=cfg).run(
            _hang_on_negative, [1, -1, 2])
        assert out.results == [2, None, 4]
        failed = out.failures[1]
        assert failed.kind == "timeout"
        assert "wall-clock budget" in failed.message

    def test_queued_items_do_not_burn_timeout_while_waiting(self):
        # 4 items x 0.4s on 2 workers: the wave takes ~0.8s wall clock,
        # past the 0.6s per-item budget. The deadline must arm when an
        # item starts running, not at submission — otherwise the queued
        # half of the wave is charged timeouts it never incurred.
        cfg = SuperviseConfig(timeout_s=0.6, retries=0,
                              backoff_s=0.001, poll_interval_s=0.02)
        out = SupervisedPool(workers=2, config=cfg).run(
            _slow_double, [1, 2, 3, 4])
        assert out.ok and out.results == [2, 4, 6, 8]
        assert out.retries == 0

    def test_transient_worker_failure_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        out = SupervisedPool(workers=2, config=FAST).run(
            _fail_until_marker, [marker])
        assert out.ok and out.results == ["recovered"]
        assert out.retries == 1

    def test_permanent_worker_error_quarantines_without_retry(self):
        out = SupervisedPool(workers=2, config=FAST).run(
            _permanent_on_negative, [1, -1, 2, 3])
        assert out.results == [2, None, 4, 6]
        assert out.failures[1].kind == "permanent"
        assert out.failures[1].attempts == 1

    def test_matches_serial_results(self):
        serial = SupervisedPool(workers=1, config=FAST).run(
            _double, list(range(6)))
        parallel = SupervisedPool(workers=3, config=FAST).run(
            _double, list(range(6)))
        assert serial.results == parallel.results


class TestBrokenPoolAccounting:
    """White-box: when the pool breaks, futures that finished before the
    break must keep their results, only in-flight units are charged a
    crash attempt, and queued units ride free."""

    def test_salvages_finished_and_charges_only_running(self):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import supervise

        pool = SupervisedPool(workers=2, config=FAST)
        items = ["done", "crashed", "queued"]
        outcome = SweepOutcome(results=[None] * 3)
        state = [supervise._ItemState() for _ in items]
        ctx = supervise._RunContext(pool, items, outcome, state,
                                    None, None)

        finished = Future()
        finished.set_result("salvaged")
        broke = Future()
        broke.set_exception(BrokenProcessPool("worker died"))
        queued = Future()  # never started

        requeue = []
        pool._handle_broken_pool(
            ctx, {finished: 0, broke: 1, queued: 2},
            [finished, broke, queued], {broke}, requeue)

        assert outcome.results[0] == "salvaged"
        assert state[0].attempts == 0   # a finished unit is not charged
        assert state[1].attempts == 1   # the in-flight unit is charged
        assert state[2].attempts == 0   # the queued unit rides free
        assert sorted(requeue) == [1, 2]
