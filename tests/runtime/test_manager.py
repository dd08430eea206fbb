"""Runtime Manager selection policy tests."""

import pytest

from repro.runtime import Library, RuntimeManager, SelectionPolicy
from tests.conftest import make_entry
from tests.runtime.oracles import IndexOnlyManager, linear_select


class TestSelectionPolicy:
    def test_defaults(self):
        p = SelectionPolicy()
        assert p.accuracy_loss_threshold == 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy(accuracy_loss_threshold=1.5)
        with pytest.raises(ValueError):
            SelectionPolicy(headroom=0.0)


class TestRuntimeManager:
    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            RuntimeManager(Library())

    def test_min_accuracy_relative_to_best(self, toy_library):
        mgr = RuntimeManager(toy_library)
        assert mgr.min_accuracy == pytest.approx(0.90 - 0.10)

    def test_picks_highest_accuracy_feasible(self, toy_library):
        mgr = RuntimeManager(toy_library)
        # Low workload: the most accurate entry that still covers it.
        selected = mgr.select(workload_ips=100.0)
        assert selected.accuracy == pytest.approx(0.90)

    def test_high_workload_forces_faster_entry(self, toy_library):
        mgr = RuntimeManager(toy_library)
        slow = mgr.select(100.0)
        fast = mgr.select(700.0)
        assert fast.serving_ips >= 700.0
        assert fast.accuracy <= slow.accuracy

    def test_accuracy_threshold_respected(self, toy_library):
        mgr = RuntimeManager(toy_library)
        selected = mgr.select(600.0)
        assert selected.accuracy >= mgr.min_accuracy

    def test_degraded_mode_when_infeasible(self, toy_library):
        mgr = RuntimeManager(toy_library)
        selected = mgr.select(1e6)  # nothing can serve this
        # Fastest entry still honouring the accuracy bound.
        candidates = [e for e in toy_library
                      if e.accuracy >= mgr.min_accuracy]
        assert selected.serving_ips == max(e.serving_ips for e in candidates)

    def test_stability_tiebreak(self):
        """Equal-accuracy entries: prefer the loaded accelerator."""
        lib = Library()
        a = make_entry(rate=0.0, ct=0.5, acc=0.85, ips=500.0)
        b = make_entry(rate=0.4, ct=0.9, acc=0.85, ips=500.0)
        lib.add(a)
        lib.add(b)
        mgr = RuntimeManager(lib)
        assert mgr.select(100.0, current=a) == a
        assert mgr.select(100.0, current=b) == b

    def test_energy_tiebreak(self):
        lib = Library()
        costly = make_entry(rate=0.0, ct=0.5, acc=0.85, ips=500.0,
                            energy=5e-3)
        frugal = make_entry(rate=0.0, ct=0.7, acc=0.85, ips=500.0,
                            energy=1e-3)
        lib.add(costly)
        lib.add(frugal)
        mgr = RuntimeManager(lib)
        assert mgr.select(100.0) == frugal

    def test_requires_reconfiguration(self, toy_library):
        mgr = RuntimeManager(toy_library)
        low = mgr.select(100.0)
        assert mgr.requires_reconfiguration(None, low)
        assert not mgr.requires_reconfiguration(low, low)
        high = mgr.select(900.0)
        if high.accelerator != low.accelerator:
            assert mgr.requires_reconfiguration(low, high)

    def test_ct_change_is_free(self):
        """Same accelerator, different threshold -> no reconfiguration."""
        lib = Library()
        a = make_entry(rate=0.4, ct=0.1, acc=0.80, ips=900.0)
        b = make_entry(rate=0.4, ct=0.9, acc=0.84, ips=500.0)
        lib.add(a)
        lib.add(b)
        mgr = RuntimeManager(lib)
        assert not mgr.requires_reconfiguration(a, b)

    def test_negative_workload_rejected(self, toy_library):
        with pytest.raises(ValueError):
            RuntimeManager(toy_library).select(-1.0)

    def test_headroom(self, toy_library):
        tight = RuntimeManager(toy_library, SelectionPolicy(headroom=1.5))
        loose = RuntimeManager(toy_library)
        w = 500.0
        assert tight.select(w).serving_ips >= 1.5 * w - 1e-9
        assert loose.select(w).serving_ips >= w - 1e-9


class TestSelectionIndex:
    """The throughput-sorted index (``IndexOnlyManager``) must return the
    *same object* the historical linear rescan would pick, for any
    library (including ties on accuracy, throughput, and energy)."""

    @staticmethod
    def _random_library(rng, n):
        lib = Library()
        ips_pool = rng.choice([100.0, 200.0, 300.0, 400.0, 500.0], size=n)
        acc_pool = rng.choice([0.70, 0.80, 0.85, 0.8500001, 0.90], size=n)
        energy_pool = rng.choice([1e-3, 2e-3, 3e-3], size=n)
        for i in range(n):
            lib.add(make_entry(
                rate=float(rng.choice([0.0, 0.4, 0.8])),
                ct=float(rng.choice([0.1, 0.5, 0.9])),
                acc=float(acc_pool[i]), ips=float(ips_pool[i]),
                energy=float(energy_pool[i]),
                variant=str(rng.choice(["ee", "backbone"]))))
        return lib

    def test_matches_linear_algorithm_with_ties(self):
        import numpy as np
        rng = np.random.default_rng(3)
        for _ in range(25):
            lib = self._random_library(rng, int(rng.integers(1, 30)))
            mgr = IndexOnlyManager(lib, SelectionPolicy(
                accuracy_loss_threshold=float(
                    rng.choice([0.0, 0.05, 0.10, 0.30])),
                headroom=float(rng.choice([0.8, 1.0, 1.2]))))
            entries = list(lib)
            for _ in range(20):
                w = float(rng.uniform(0, 700))
                cur = entries[int(rng.integers(0, len(entries)))] \
                    if rng.random() < 0.7 else None
                assert mgr.select(w, current=cur) \
                    is linear_select(mgr, w, current=cur)

    def test_index_invalidated_on_library_add(self, toy_library):
        mgr = IndexOnlyManager(toy_library)
        before = mgr.select(100.0)
        assert before is linear_select(mgr, 100.0)
        toy_library.add(make_entry(rate=0.4, ct=0.42, acc=0.95,
                                   ips=2000.0, energy=1e-4))
        after = mgr.select(100.0)
        assert after is linear_select(mgr, 100.0)
        assert after is not before

    def test_index_reused_between_queries(self, toy_library):
        mgr = IndexOnlyManager(toy_library)
        mgr.select(100.0)
        idx = mgr._selection_index
        mgr.select(500.0, current=mgr.select(100.0))
        assert mgr._selection_index is idx

    def test_select_without_reconfig_memoized(self, toy_library):
        mgr = RuntimeManager(toy_library)
        cur = mgr.select(100.0)
        first = mgr.select_without_reconfig(cur)
        assert mgr.select_without_reconfig(cur) is first
        assert cur.accelerator in mgr._no_reconfig_cache
        # library mutation drops the memo
        toy_library.add(make_entry(rate=cur.accelerator.pruning_rate,
                                   ct=0.33, acc=0.95, ips=300.0))
        refreshed = mgr.select_without_reconfig(cur)
        assert refreshed.accuracy == 0.95

    def test_degraded_mode_matches_linear(self):
        lib = Library()
        # nothing can carry 10k IPS -> degraded mode, incl. ties
        lib.add(make_entry(rate=0.0, ct=0.5, acc=0.85, ips=500.0))
        lib.add(make_entry(rate=0.4, ct=0.5, acc=0.85, ips=500.0))
        lib.add(make_entry(rate=0.8, ct=0.5, acc=0.60, ips=400.0))
        mgr = IndexOnlyManager(lib)
        for cur in [None, *lib]:
            assert mgr.select(10_000.0, current=cur) \
                is linear_select(mgr, 10_000.0, current=cur)

    def test_no_reconfig_memo_invalidated_on_policy_change(self,
                                                           toy_library):
        """Tightening the accuracy floor must drop the stay-put memo —
        a cached answer computed against the old ``min_accuracy`` would
        otherwise leak through ``select_without_reconfig``."""
        mgr = RuntimeManager(
            toy_library, SelectionPolicy(accuracy_loss_threshold=0.30))
        cur = mgr.select(900.0)
        loose = mgr.select_without_reconfig(cur)
        assert loose is mgr.select_without_reconfig(cur)  # memo hit
        mgr.policy = SelectionPolicy(accuracy_loss_threshold=0.0)
        tight = mgr.select_without_reconfig(cur)
        assert tight is not None
        assert tight.accuracy >= mgr.min_accuracy \
            or all(e.accuracy < mgr.min_accuracy
                   for e in toy_library
                   if e.accelerator == cur.accelerator)
        # And the fresh answer is itself memoized under the new floor.
        assert mgr.select_without_reconfig(cur) is tight

    def test_index_rebuilt_on_policy_change(self, toy_library):
        mgr = IndexOnlyManager(toy_library)
        mgr.select(100.0)
        idx = mgr._selection_index
        mgr.policy = SelectionPolicy(accuracy_loss_threshold=0.02)
        assert mgr.select(100.0) is linear_select(mgr, 100.0)
        assert mgr._selection_index is not idx

    def test_mutation_agreement_index_table_linear(self):
        """Append and quarantine mid-campaign: the index, the compiled
        policy table, and the linear rescan must keep agreeing."""
        import numpy as np
        rng = np.random.default_rng(11)
        lib = self._random_library(rng, 12)
        indexed = IndexOnlyManager(lib)
        tabled = RuntimeManager(lib)
        tabled.compile_policy_table(cells=512)

        def agree():
            entries = list(lib)
            for w in [0.0, 90.0, 250.0, 480.0, 5_000.0,
                      *rng.uniform(0, 700, 10)]:
                for cur in [None,
                            entries[int(rng.integers(len(entries)))]]:
                    pin = linear_select(indexed, float(w), current=cur)
                    assert indexed.select(float(w), current=cur) is pin
                    assert tabled.select(float(w), current=cur) is pin

        agree()
        lib.add(make_entry(rate=0.3, ct=0.42, acc=0.93, ips=620.0,
                           energy=1.5e-3))
        agree()
        removed = lib.quarantine(
            lambda e: e.serving_ips >= 450.0, reason="mid-campaign")
        assert removed > 0
        agree()
