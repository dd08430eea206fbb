"""PhaseTimer tests: accumulation, merging (the worker -> parent path),
and the JSON report format."""

import json
import threading
import time

import pytest

from repro.core import PhaseTimer


class TestPhaseTimer:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("train"):
            time.sleep(0.01)
        with timer.phase("train"):
            pass
        assert timer.seconds("train") >= 0.01
        assert timer.count("train") == 2

    def test_phase_records_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("prune"):
                raise RuntimeError("boom")
        assert timer.count("prune") == 1

    def test_add_validates(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_unknown_phase_is_zero(self):
        timer = PhaseTimer()
        assert timer.seconds("nope") == 0.0
        assert timer.count("nope") == 0

    def test_merge_timer_and_dict(self):
        a = PhaseTimer()
        a.add("prune", 1.0)
        b = PhaseTimer()
        b.add("prune", 2.0, count=3)
        b.add("compile", 0.5)
        a.merge(b)
        a.merge({"phases": {"compile": {"seconds": 0.25, "count": 1}}})
        assert a.seconds("prune") == pytest.approx(3.0)
        assert a.count("prune") == 4
        assert a.seconds("compile") == pytest.approx(0.75)
        assert a.total_seconds() == pytest.approx(3.75)

    def test_as_dict_shape(self):
        timer = PhaseTimer()
        timer.add("train", 2.0)
        data = timer.as_dict()
        assert data["phases"]["train"] == {"seconds": 2.0, "count": 1}
        assert data["total_s"] == pytest.approx(2.0)

    def test_summary_mentions_phases(self):
        timer = PhaseTimer()
        timer.add("simulate", 1.5, count=4)
        text = timer.summary()
        assert "simulate" in text and "x4" in text

    def test_summary_empty(self):
        assert "no phases" in PhaseTimer().summary()

    def test_write_json(self, tmp_path):
        timer = PhaseTimer()
        timer.add("compile", 0.5)
        path = tmp_path / "BENCH_test.json"
        timer.write_json(path, extra={"dataset": "cifar10"})
        data = json.loads(path.read_text())
        assert data["dataset"] == "cifar10"
        assert data["phases"]["compile"]["seconds"] == pytest.approx(0.5)

    def test_thread_safe_accumulation(self):
        timer = PhaseTimer()

        def work():
            for _ in range(200):
                timer.add("x", 0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert timer.count("x") == 800
        assert timer.seconds("x") == pytest.approx(0.8)


class TestNestedPhases:
    """Phases recorded inside another phase are listed but not added to
    the total, which sums the outermost phases only."""

    def _timer(self):
        timer = PhaseTimer()
        with timer.phase("characterize"):
            with timer.phase("engine_forward"):
                timer.add("engine_step/conv", 0.5)
            timer.add("engine_threshold", 0.25)
            timer.add("engine_memo_hit", 0.0, 3)
        timer.add("train", 1.0)
        return timer

    def test_total_is_outermost(self):
        timer = self._timer()
        outer = timer.seconds("characterize") + 1.0
        assert timer.total_seconds() == pytest.approx(outer)
        assert timer.as_dict()["total_s"] == pytest.approx(outer)
        assert timer.seconds("engine_step/conv") == pytest.approx(0.5)
        assert timer.count("engine_memo_hit") == 3

    def test_summary_lists_nested_phases(self):
        timer = self._timer()
        text = timer.summary()
        assert f"(total {timer.total_seconds():.2f} s)" in text
        for name in ("engine_forward", "engine_step/conv",
                     "engine_threshold", "engine_memo_hit"):
            assert name in text

    def test_nested_share_survives_merge(self):
        parent = PhaseTimer()
        parent.add("train", 2.0)
        for _ in range(2):  # two workers' timers
            parent.merge(self._timer().as_dict())
        workers = 2 * 1.0 + parent.seconds("characterize")
        assert parent.total_seconds() == pytest.approx(2.0 + workers)
        assert parent.count("engine_forward") == 2
        assert parent.seconds("engine_step/conv") == pytest.approx(1.0)

    def test_merge_inside_open_phase_is_nested(self):
        parent = PhaseTimer()
        with parent.phase("sweep"):
            parent.merge(self._timer())
        assert parent.total_seconds() == pytest.approx(
            parent.seconds("sweep"))

    def test_phase_in_another_thread_is_outer(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            worker = threading.Thread(
                target=lambda: timer.add("elsewhere", 1.0))
            worker.start()
            worker.join()
        assert timer.total_seconds() == pytest.approx(
            timer.seconds("outer") + 1.0)
