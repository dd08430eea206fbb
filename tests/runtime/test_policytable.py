"""Compiled policy-table tests.

``repro.runtime.policytable`` promises **exact** equivalence with the
indexed selection (``IndexOnlyManager``) — same *object* for every
workload and every loaded accelerator, with binary or graded
(partial-reconfig) tie-breaking — plus a compile on first use,
recompilation when the library, policy or cost model changes, and an
index fallback for off-grid queries. Hypothesis drives random
libraries, tie-heavy grids and mutation sequences through both paths.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    Library,
    PartialReconfigModel,
    PolicyTable,
    RuntimeManager,
    SelectionPolicy,
)
from repro.runtime.manager import _SelectionIndex
from tests.conftest import make_entry
from tests.runtime.oracles import IndexOnlyManager, linear_select


def tie_library(rng, n):
    """Random library drawn from small pools, so accuracy/throughput/
    energy ties (the hard part of equivalence) are common."""
    lib = Library()
    for _ in range(n):
        lib.add(make_entry(
            rate=float(rng.choice([0.0, 0.4, 0.8])),
            ct=float(rng.choice([0.1, 0.5, 0.9])),
            acc=float(rng.choice([0.70, 0.80, 0.85, 0.8500001, 0.90])),
            ips=float(rng.choice([100.0, 200.0, 300.0, 400.0, 500.0])),
            energy=float(rng.choice([1e-3, 2e-3, 3e-3])),
            variant=str(rng.choice(["ee", "backbone"]))))
    return lib


def probe_workloads(lib, rng, extra=15):
    """Breakpoint neighborhoods plus random and pathological points."""
    ws = [0.0, 1e9]
    for e in lib.entries:
        for w in (e.serving_ips, e.serving_ips / 1.1):
            ws += [w, float(np.nextafter(w, 0.0)),
                   float(np.nextafter(w, np.inf))]
    ws += [float(w) for w in rng.uniform(0, 700, extra)]
    return ws


def assert_equivalent(ref, tab, lib, rng):
    currents = [None] + list(lib.entries)
    for w in probe_workloads(lib, rng):
        for cur in (None, currents[int(rng.integers(len(currents)))]):
            assert tab.select(w, cur) is ref.select(w, cur), \
                f"w={w!r} cur={cur and cur.accelerator.label()}"


class TestEquivalence:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 24),
           loss=st.sampled_from([0.0, 0.05, 0.10, 0.30]),
           headroom=st.sampled_from([0.8, 1.0, 1.2]),
           graded=st.booleans(),
           cells=st.sampled_from([1, 7, 64, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_matches_index_exactly(self, seed, n, loss, headroom,
                                   graded, cells):
        rng = np.random.default_rng(seed)
        lib = tie_library(rng, n)
        policy = SelectionPolicy(accuracy_loss_threshold=loss,
                                 headroom=headroom)
        model = PartialReconfigModel() if graded else None
        ref = IndexOnlyManager(lib, policy, reconfig_model=model)
        tab = RuntimeManager(lib, policy, reconfig_model=model)
        tab.compile_policy_table(cells=cells)
        assert_equivalent(ref, tab, lib, rng)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_survives_library_mutation(self, seed):
        """add() and quarantine() mid-stream: the table must recompile
        (via Library._version) and keep matching the index."""
        rng = np.random.default_rng(seed)
        lib = tie_library(rng, 10)
        ref = IndexOnlyManager(lib)
        tab = RuntimeManager(lib)
        tab.compile_policy_table(cells=256)
        assert_equivalent(ref, tab, lib, rng)
        lib.add(make_entry(rate=0.2, ct=0.3,
                           acc=float(rng.choice([0.85, 0.95])),
                           ips=float(rng.uniform(50, 900))))
        assert_equivalent(ref, tab, lib, rng)
        cut = float(rng.uniform(100, 500))
        if lib.quarantine(lambda e: e.serving_ips >= cut) == len(lib.entries):
            return  # an emptied library is not servable by contract
        if len(lib):
            assert_equivalent(ref, tab, lib, rng)

    def test_policy_replacement_recompiles(self):
        rng = np.random.default_rng(5)
        lib = tie_library(rng, 12)
        ref = IndexOnlyManager(lib)
        tab = RuntimeManager(lib)
        tab.compile_policy_table(cells=128)
        table = tab._policy_table
        new_policy = SelectionPolicy(accuracy_loss_threshold=0.0)
        ref.policy = new_policy
        tab.policy = new_policy
        assert_equivalent(ref, tab, lib, rng)
        assert tab._policy_table is not table

    def test_reconfig_model_change_recompiles(self):
        rng = np.random.default_rng(7)
        lib = tie_library(rng, 12)
        tab = RuntimeManager(lib)
        tab.compile_policy_table(cells=128)
        tab.set_reconfig_model(PartialReconfigModel())
        ref = IndexOnlyManager(lib,
                               reconfig_model=PartialReconfigModel())
        assert_equivalent(ref, tab, lib, rng)

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 24),
           loss=st.sampled_from([0.0, 0.05, 0.10, 0.30]),
           graded=st.booleans(),
           deltas=st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.3]),
                           max_size=3),
           cells=st.sampled_from([1, 64, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_extra_levels_match_index_exactly(self, seed, n, loss, graded,
                                              deltas, cells):
        """Brownout floors (``extra_accuracy_levels``), binary or graded:
        ``lookup_at`` and ``select_at`` give the index's entry."""
        rng = np.random.default_rng(seed)
        lib = tie_library(rng, n)
        policy = SelectionPolicy(accuracy_loss_threshold=loss)
        model = PartialReconfigModel() if graded else None
        ref = IndexOnlyManager(lib, policy, reconfig_model=model)
        tab = RuntimeManager(lib, policy, reconfig_model=model)
        floors = tuple(ref.min_accuracy - d for d in deltas)
        table = tab.compile_policy_table(cells=cells,
                                         extra_accuracy_levels=floors)
        currents = [None] + list(lib.entries)
        for floor in floors:
            for w in probe_workloads(lib, rng):
                cur = currents[int(rng.integers(len(currents)))]
                want = ref.select_at(floor, w, cur)
                got = table.lookup_at(floor, w, cur)
                assert got is None or got is want
                assert tab.select_at(floor, w, cur) is want

    def test_negative_workload_still_raises(self, toy_library):
        mgr = RuntimeManager(toy_library)
        mgr.compile_policy_table()
        with pytest.raises(ValueError):
            mgr.select(-1.0)

    def test_nan_and_inf_match_index(self, toy_library):
        ref = IndexOnlyManager(toy_library)
        tab = RuntimeManager(toy_library)
        tab.compile_policy_table()
        for w in (float("inf"), float("nan")):
            for cur in (None, next(iter(toy_library))):
                assert tab.select(w, cur) is ref.select(w, cur)


class CompileCounter(RuntimeManager):
    """Records the library version of every policy-table compile."""

    def __init__(self, *args, **kwargs):
        self.compiled_versions = []
        super().__init__(*args, **kwargs)

    def compile_policy_table(self, *args, **kwargs):
        self.compiled_versions.append(self.library._version)
        return super().compile_policy_table(*args, **kwargs)


class TestCompileOnFirstUse:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 16),
           loss=st.sampled_from([0.0, 0.05, 0.10, 0.30]),
           headroom=st.sampled_from([0.8, 1.0, 1.2]),
           graded=st.booleans(),
           deltas=st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.3]),
                           max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_never_compiled_manager_matches_index_and_linear(
            self, seed, n, loss, headroom, graded, deltas):
        """A manager nobody compiled answers ``select`` and ``select_at``
        exactly as the index and the linear rescan do, across add() and
        quarantine() mid-stream, compiling once per library version."""
        rng = np.random.default_rng(seed)
        lib = tie_library(rng, n)
        policy = SelectionPolicy(accuracy_loss_threshold=loss,
                                 headroom=headroom)
        model = PartialReconfigModel() if graded else None
        ref = IndexOnlyManager(lib, policy, reconfig_model=model)
        mgr = CompileCounter(lib, policy, reconfig_model=model)
        floors = [mgr.min_accuracy - d for d in deltas]
        queried = set()

        def agree():
            queried.add(lib._version)
            currents = [None] + list(lib.entries)
            for w in probe_workloads(lib, rng, extra=5):
                cur = currents[int(rng.integers(len(currents)))]
                got = mgr.select(w, cur)
                assert got is ref.select(w, cur)
                if not graded:
                    assert got is linear_select(ref, w, cur)
                for floor in floors:
                    got = mgr.select_at(floor, w, cur)
                    assert got is ref.select_at(floor, w, cur)
                    if not graded:
                        assert got is linear_select(ref, w, cur, floor)

        agree()
        lib.add(make_entry(rate=0.2, ct=0.3,
                           acc=float(rng.choice([0.85, 0.95])),
                           ips=float(rng.uniform(50, 900))))
        agree()
        cut = float(rng.uniform(100, 500))
        lib.quarantine(lambda e: e.serving_ips >= cut)
        if len(lib):  # an emptied library is not servable by contract
            agree()
        assert sorted(mgr.compiled_versions) == sorted(queried)


class TestTableLifecycle:
    def test_fast_select_installed_on_first_query(self, toy_library):
        mgr = RuntimeManager(toy_library)
        assert "select" not in mgr.__dict__
        assert mgr.select(100.0).accuracy == pytest.approx(0.90)
        assert "select" in mgr.__dict__  # instance closure shadows class
        # A new cost model drops the table and its closure; the next
        # query compiles both again.
        mgr.set_reconfig_model(PartialReconfigModel())
        assert "select" not in mgr.__dict__
        assert mgr._policy_table is None
        assert mgr.select(100.0).accuracy == pytest.approx(0.90)
        assert "select" in mgr.__dict__
        assert mgr._policy_table.stats()["graded_cost_model"]

    def test_stale_table_keeps_its_extra_levels(self, toy_library):
        mgr = RuntimeManager(toy_library)
        mgr.compile_policy_table(cells=512, extra_accuracy_levels=(0.7,))
        toy_library.add(make_entry(rate=0.2, ct=0.2, acc=0.9, ips=50.0))
        mgr.select(100.0)
        stats = mgr._policy_table.stats()
        assert (stats["cells"], stats["levels"]) == (512, 2)

    def test_oracle_policy_not_shadowed(self, toy_library):
        class PinnedPolicy(RuntimeManager):
            """Provisions once for a known peak, then never adapts."""

            def __init__(self, library, peak_ips):
                super().__init__(library)
                self._choice = super().select(peak_ips)

            def select(self, workload_ips, current=None):
                return self._choice

        oracle = PinnedPolicy(toy_library, peak_ips=500.0)
        pinned = oracle.select(100.0)
        oracle.compile_policy_table()
        # The subclass overrides select at class level; installing the
        # closure would silently re-enable adaptive behaviour.
        assert "select" not in oracle.__dict__
        assert oracle.select(5_000.0) is pinned

    def test_stats(self, toy_library):
        mgr = RuntimeManager(toy_library)
        table = mgr.compile_policy_table(cells=1024)
        stats = table.stats()
        assert stats["entries"] == len(toy_library)
        assert stats["levels"] == 1
        # One no-current slot plus one per distinct accelerator.
        assert stats["slots"] == 1 + len(toy_library.accelerators())
        assert stats["grid_cells"] >= 1
        assert not stats["graded_cost_model"]

    def test_lookup_at_extra_levels(self, toy_library):
        mgr = RuntimeManager(toy_library)
        table = mgr.compile_policy_table(
            extra_accuracy_levels=(0.70, 0.85))
        assert table.stats()["levels"] == 3
        for floor in (0.70, 0.85):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                ref_idx = _SelectionIndex(toy_library, floor)
            for w in [0.0, 120.0, 480.0, 900.0, 1500.0]:
                got = table.lookup_at(floor, w, None)
                if got is None:
                    continue  # off-grid: callers fall back to an index
                assert got.accuracy >= floor or not any(
                    e.accuracy >= floor for e in toy_library)
                assert got.serving_ips >= w * mgr.policy.headroom \
                    or got in (ref_idx.degraded_acc_ok
                               + ref_idx.degraded_all)

    def test_lookup_unknown_accelerator_falls_back(self, toy_library):
        mgr = RuntimeManager(toy_library)
        table = mgr.compile_policy_table()
        stranger = make_entry(rate=0.33, ct=0.5, acc=0.5, ips=10.0)
        # Graded tables cannot tabulate an unknown current; binary
        # tables answer from the no-current slot (same tie semantics).
        got = table.lookup(100.0, stranger)
        assert got is None or got is mgr.select(100.0)
        assert mgr.select(100.0, stranger) is not None


class CountingModel(PartialReconfigModel):
    """A graded cost model that counts its ``switch_time_s`` calls."""

    calls = 0

    def switch_time_s(self, current, target):
        CountingModel.calls += 1
        return super().switch_time_s(current, target)


class TestCompileCost:
    def test_graded_compile_calls_switch_time_at_most_a_squared(self):
        """One A x A switch-cost matrix per compile, shared by every
        position, slot and accuracy level."""
        rng = np.random.default_rng(11)
        lib = Library()
        for rate in np.round(np.linspace(0.0, 0.9, 10), 2):
            for variant, pruned in (("ee", True), ("ee", False),
                                    ("backbone", True)):
                for ct in (0.2, 0.5, 0.8):
                    lib.add(make_entry(
                        rate=float(rate), ct=ct, variant=variant,
                        pruned=pruned,
                        acc=float(rng.choice([0.80, 0.85, 0.90])),
                        ips=float(rng.uniform(100.0, 900.0)),
                        energy=float(rng.choice([1e-3, 2e-3]))))
        accels = len(lib.accelerators())
        assert accels == 30
        ref = IndexOnlyManager(lib, reconfig_model=PartialReconfigModel())
        mgr = RuntimeManager(lib, reconfig_model=CountingModel())
        CountingModel.calls = 0
        mgr.compile_policy_table(extra_accuracy_levels=(0.8, 0.7))
        assert 0 < CountingModel.calls <= accels ** 2
        for w in probe_workloads(lib, rng):
            for cur in (None, lib.entries[int(rng.integers(len(lib)))]):
                assert mgr.select(w, cur) is ref.select(w, cur)


class TestPolicyTableDirect:
    def test_single_entry_library(self):
        lib = Library()
        only = make_entry(rate=0.0, ct=0.5, acc=0.8, ips=100.0)
        lib.add(only)
        mgr = RuntimeManager(lib)
        table = PolicyTable(mgr, cells=4)
        for w in (0.0, 50.0, 100.0, 1e6):
            got = table.lookup(w, None)
            assert got is None or got is only
            assert mgr.select(w) is only

    def test_version_tracks_library(self, toy_library):
        mgr = RuntimeManager(toy_library)
        table = PolicyTable(mgr, cells=4096)
        assert table.version == toy_library._version
        assert table.size == len(toy_library.entries)
        toy_library.add(make_entry(rate=0.2, ct=0.2, acc=0.9, ips=50.0))
        assert table.version != toy_library._version
