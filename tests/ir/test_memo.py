"""The step memo of the compiled engine.

Plans compiled against one :class:`~repro.ir.engine.StepMemo` share the
outputs of identical steps. A hit returns what the same computation made
from the same bytes, so every output must equal a memo-free run's, under
any sequence of plans and batches and any budget, and a key must change
whenever anything a step computes from changes.
"""

import copy
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseTimer
from repro.ir import IRGraph, IRNode, StepMemo, engine, export_model, \
    streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn.functional import conv_output_size
from repro.pruning import prune_model


@lru_cache(maxsize=None)
def _base():
    return build_cnv(CNVConfig(width_scale=0.125, seed=0),
                     ExitsConfiguration.paper_default(pruned=True))


@lru_cache(maxsize=None)
def _graph(rate: float, prune_exits: bool, criterion: str) -> IRGraph:
    model, _ = prune_model(_base(), rate, prune_exits=prune_exits,
                           criterion=criterion)
    graph = export_model(model)
    streamline(graph)
    return graph


def _batch(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, 3, 32, 32))


def _held(memo: StepMemo) -> list:
    batch = [] if memo._batch is None else [memo._batch]
    return batch + list(memo._arrays.values())


def _memo(budget: int) -> StepMemo:
    with mock.patch.object(engine, "MEMO_BUDGET", budget):
        return StepMemo()


def _assert_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


_plans = st.tuples(st.sampled_from([0.0, 0.1, 0.3, 0.5]), st.booleans(),
                   st.sampled_from(["l1", "fpgm"]),
                   st.sampled_from([np.float64, np.float32]))
_batches = st.sampled_from(["same", "copy", "changed", "resized"])


class TestDifferential:
    """Random plan sequences on random batches, one shared memo with a
    small budget: every output equals a memo-free run."""

    @settings(max_examples=25, deadline=None)
    @given(plans=st.lists(st.tuples(_plans, _batches), min_size=2,
                          max_size=6),
           budget=st.sampled_from([0, 40_000, 120_000, 400_000,
                                   engine.MEMO_BUDGET]),
           seed=st.integers(0, 3))
    def test_outputs_equal_memo_free_runs(self, plans, budget, seed):
        memo = _memo(budget)
        x = _batch(3, seed)
        for (rate, prune_exits, criterion, dtype), how in plans:
            if how == "copy":
                x = x.copy()
            elif how == "changed":
                x = x.copy()
                x.flat[seed * 97 % x.size] += 0.5
            elif how == "resized":
                x = _batch(1 + (len(x) % 4), seed + len(x))
            graph = _graph(rate, prune_exits, criterion)
            ref = graph.compile(dtype=dtype).run(x)
            plan = graph.compile(dtype=dtype, memo=memo)
            for _ in range(2):
                _assert_equal(ref, plan.run(x))
                assert memo.nbytes <= budget
                held = _held(memo)
                assert sum(a.nbytes for a in held) == memo.nbytes
                assert not any(a.flags.writeable for a in held)

    def test_mutated_batch_misses(self):
        memo = StepMemo()
        graph = _graph(0.3, True, "l1")
        plan = graph.compile(memo=memo)
        x = _batch(4)
        plan.run(x)
        hits = memo.hits
        x[1, 2, 3, 4] += 1.0  # the caller's own array, in place
        got = plan.run(x)
        assert memo.hits == hits  # a new root: nothing is served
        _assert_equal(graph.compile().run(x), got)

    def test_negative_zero_batch_misses(self):
        # MaxPool and Flatten keep the sign of a zero, so a batch of
        # -0.0 served with the outputs of a batch of +0.0 would differ.
        g = IRGraph("signs")
        g.set_input("input", (2, 4, 4))
        g.add_tensor("p0", (2, 2, 2))
        g.add_tensor("f0", (8,))
        g.add_node(IRNode("MaxPool", "pool", ["input"], ["p0"],
                          attrs={"kernel": 2, "stride": 2}))
        g.add_node(IRNode("Flatten", "flat", ["p0"], ["f0"]))
        g.mark_output("f0")
        plan = g.compile(memo=StepMemo())
        zeros = np.zeros((3, 2, 4, 4))
        plan.run(zeros)
        got = plan.run(-zeros)
        ref = g.compile().run(-zeros)
        assert np.signbit(ref[0]).all()
        _assert_equal(ref, got)
        assert np.signbit(got[0]).all()

    def test_nan_batch_is_matched_by_bits(self):
        plan = _graph(0.0, True, "l1").compile(memo=StepMemo())
        x = _batch(2)
        x[0, 0, 0, 0] = np.nan
        first = plan.run(x)
        hits = plan.memo.hits
        _assert_equal(first, plan.run(x.copy()))
        assert plan.memo.hits > hits

    def test_outputs_are_owned(self):
        plan = _graph(0.0, True, "l1").compile(memo=StepMemo())
        x = _batch(2)
        first = plan.run(x)
        again = plan.run(x)
        for a, b in zip(first, again):
            assert a.flags.writeable and b.flags.writeable
            b += 1.0
            assert not np.array_equal(a, b)
        _assert_equal(first, plan.run(x))


class TestSharing:
    def test_repeat_runs_only_serve_outputs(self):
        timer = PhaseTimer()
        memo = StepMemo()
        plan = _graph(0.3, True, "l1").compile(memo=memo, timer=timer)
        x = _batch(2)
        plan.run(x)
        steps = {k: v["count"] for k, v in timer.as_dict()["phases"].items()
                 if k.startswith("engine_step/")}
        misses = memo.misses
        plan.run(x)
        # Served steps do not run: no engine_step phase moves, and only
        # the graph outputs were looked up.
        assert {k: timer.count(k) for k in steps} == steps
        assert memo.misses == misses
        assert memo.hits == len(plan.output_names)
        assert timer.count("engine_memo_hit") == len(plan.output_names)
        assert timer.count("engine_memo_miss") == misses

    def test_backbone_shared_across_exit_variants(self):
        memo = StepMemo()
        x = _batch(2)
        _graph(0.3, True, "l1").compile(memo=memo).run(x)
        hits = memo.hits
        graph = _graph(0.3, False, "l1")
        _assert_equal(graph.compile().run(x),
                      graph.compile(memo=memo).run(x))
        assert memo.hits > hits

    def test_new_batch_replaces_held_one(self):
        memo = StepMemo()
        plan = _graph(0.3, True, "l1").compile(memo=memo)
        x, y = _batch(2, 0), _batch(2, 1)
        plan.run(x)
        held = memo.stats()
        plan.run(y)  # drops x and its outputs
        assert memo.stats()["entries"] == held["entries"]
        assert memo.nbytes == held["nbytes"]
        hits = memo.hits
        plan.run(x)
        assert memo.hits == hits

    def test_budget_bounds_and_evicts(self):
        memo = _memo(100_000)
        x = _batch(2)  # a 49 kB root
        for rate in (0.0, 0.3, 0.5):
            _graph(rate, True, "l1").compile(memo=memo).run(x)
            assert memo.nbytes <= 100_000
        assert memo.evictions > 0
        stats = memo.stats()
        assert stats["budget"] == 100_000 and stats["nbytes"] == memo.nbytes

    def test_batch_larger_than_budget_runs_everything(self):
        memo = _memo(1000)
        graph = _graph(0.3, True, "l1")
        x = _batch(2)
        _assert_equal(graph.compile().run(x),
                      graph.compile(memo=memo).run(x))
        assert memo.stats()["entries"] == 0 and memo.hits == 0

    def test_default_budget(self):
        assert StepMemo().budget == engine.MEMO_BUDGET == 16 * 2 ** 20

    def test_no_memo_no_keys(self):
        assert _graph(0.0, True, "l1").compile().step_keys is None


_RNG = np.random.default_rng(0)
_WEIGHT = _RNG.standard_normal((4, 3, 3, 3))
_THRESHOLDS = np.sort(_RNG.standard_normal((4, 3)), axis=1)


def _conv_graph(stride=1, padding=1, weight=_WEIGHT, thresholds=_THRESHOLDS,
                signs=np.ones(4)):
    """input -> Conv -> MultiThreshold -> MaxPool."""
    size = 8
    out = conv_output_size(size, 3, stride, padding)
    g = IRGraph("keys")
    g.set_input("input", (3, size, size))
    g.add_tensor("c0", (4, out, out))
    g.add_tensor("q0", (4, out, out))
    g.add_tensor("p0", (4, out // 2, out // 2))
    g.add_node(IRNode("Conv", "conv", ["input"], ["c0"],
                      attrs={"stride": stride, "padding": padding,
                             "kernel": 3},
                      initializers={"weight": weight,
                                    "bias": np.zeros(4)}))
    g.add_node(IRNode("MultiThreshold", "mt", ["c0"], ["q0"],
                      attrs={"step": 0.5},
                      initializers={"thresholds": thresholds,
                                    "signs": signs}))
    g.add_node(IRNode("MaxPool", "pool", ["q0"], ["p0"],
                      attrs={"kernel": 2, "stride": 2}))
    g.mark_output("p0")
    return g


def _keys(graph, dtype=np.float64):
    return graph.compile(dtype=dtype, memo=StepMemo()).step_keys


class TestKeys:
    """Changing anything a step computes from changes its key (and the
    keys of every step downstream)."""

    def _changed(self, **kwargs):
        base = _keys(_conv_graph())
        other = _keys(_conv_graph(**kwargs))
        assert len(base) == len(other)
        assert all(a != b for a, b in zip(base, other))

    def test_equal_graphs_equal_keys(self):
        assert _keys(_conv_graph()) == _keys(copy.deepcopy(_conv_graph()))

    def test_weight(self):
        weight = _WEIGHT.copy()
        weight[2, 1, 0, 0] = np.nextafter(weight[2, 1, 0, 0], np.inf)
        self._changed(weight=weight)

    def test_threshold(self):
        thresholds = _THRESHOLDS.copy()
        thresholds[3, 1] = np.nextafter(thresholds[3, 1], np.inf)
        self._changed(thresholds=thresholds)

    def test_sign(self):
        self._changed(signs=np.array([1.0, 1.0, -1.0, 1.0]))

    def test_stride(self):
        self._changed(stride=2)

    def test_padding(self):
        self._changed(padding=0)

    def test_dtype(self):
        a, b = _keys(_conv_graph()), _keys(_conv_graph(), np.float32)
        assert all(x != y for x, y in zip(a, b))

    def test_node_names_do_not_matter(self):
        graph = _conv_graph()
        for node in graph.nodes:
            node.name = "renamed_" + node.name
        assert _keys(graph) == _keys(_conv_graph())

    def test_negative_zero_is_not_zero(self):
        weight = _WEIGHT.copy()
        weight[0, 0, 0, 0] = 0.0
        negative = weight.copy()
        negative[0, 0, 0, 0] = -0.0
        assert _keys(_conv_graph(weight=weight)) \
            != _keys(_conv_graph(weight=negative))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_shared_memo_across_dtypes(dtype):
    memo = StepMemo()
    graph = _graph(0.1, True, "fpgm")
    x = _batch(2)
    other = np.float32 if dtype == np.float64 else np.float64
    graph.compile(dtype=other, memo=memo).run(x)
    _assert_equal(graph.compile(dtype=dtype).run(x),
                  graph.compile(dtype=dtype, memo=memo).run(x))
