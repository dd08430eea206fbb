"""Compiled execution engine: bit-identity against the interpreted
executors, fusion bookkeeping, buffer reuse, and dtype policy."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PhaseTimer
from repro.ir import IRGraph, IRNode, compile_graph, export_model, streamline
from repro.ir.engine import (
    _SWEEP_MAX_LEVELS,
    _prepare_thresholds,
    _threshold,
)
from repro.ir.executors import _multithreshold
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn import evaluate_exits, exit_scores, post_training_quantize
from repro.pruning import prune_model


def _cnv(exits=True, seed=0):
    exits_config = ExitsConfiguration.paper_default(pruned=True) \
        if exits else None
    return build_cnv(CNVConfig(width_scale=0.25, seed=seed), exits_config)


def _batch(n=4, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 3, 32, 32))


def assert_outputs_equal(ref, got, exact=True):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        if exact:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestBitIdentity:
    """The compiled plan is the interpreted graph, bit for bit."""

    @pytest.mark.parametrize("rate", [0.0, 0.4, 0.8])
    @pytest.mark.parametrize("exits", [False, True],
                             ids=["backbone", "exits"])
    def test_streamlined_pruned(self, rate, exits):
        model = _cnv(exits=exits)
        if rate > 0:
            model, _ = prune_model(model, rate)
        graph = export_model(model)
        streamline(graph)
        x = _batch()
        ref = graph.execute(x)
        got = graph.compile().run(x)
        assert_outputs_equal(ref, got)

    def test_int8_plan_with_a_nan_pixel(self):
        """A W8A8 CNV (255 activation levels: the searchsorted path)
        matches the interpreter on a batch with one NaN pixel."""
        model = post_training_quantize(_cnv(), 8, 8)
        graph = export_model(model)
        streamline(graph)
        x = _batch()
        x[1, 0, 5, 7] = np.nan
        ref = graph.execute(x)
        assert_outputs_equal(ref, graph.compile().run(x))

    @settings(max_examples=12, deadline=None)
    @given(rate=st.floats(0.0, 0.9, exclude_max=True),
           criterion=st.sampled_from(["l1", "fpgm"]),
           exits=st.booleans(), prune_exits=st.booleans())
    @example(rate=0.0, criterion="l1", exits=True, prune_exits=True)
    @example(rate=0.8, criterion="fpgm", exits=True, prune_exits=False)
    def test_streamlined_pruned_random(self, rate, criterion, exits,
                                       prune_exits):
        model, _ = prune_model(_cnv(exits=exits), rate,
                               prune_exits=prune_exits, criterion=criterion)
        graph = export_model(model)
        streamline(graph)
        x = _batch()
        ref = graph.execute(x)
        got = graph.compile().run(x)
        assert_outputs_equal(ref, got)

    def test_matches_model_forward(self):
        model = _cnv()
        model.eval()
        graph = export_model(model)
        streamline(graph)
        plan = graph.compile()
        x = _batch(n=2, seed=3)
        ref = model.forward(x)
        got = plan.run(x)
        assert_outputs_equal(ref, got, exact=False)


class TestBufferReuse:
    def test_repeated_runs_stable(self):
        graph = export_model(_cnv())
        streamline(graph)
        plan = graph.compile()
        for seed in range(3):
            x = _batch(seed=seed)
            assert_outputs_equal(graph.execute(x), plan.run(x))

    def test_varying_batch_sizes(self):
        graph = export_model(_cnv())
        streamline(graph)
        plan = graph.compile()
        for n in (4, 1, 6, 2):
            x = _batch(n=n, seed=n)
            assert_outputs_equal(graph.execute(x), plan.run(x))

    def test_outputs_survive_next_run(self):
        graph = export_model(_cnv())
        streamline(graph)
        plan = graph.compile()
        first = plan.run(_batch(seed=0))
        snapshot = [o.copy() for o in first]
        plan.run(_batch(seed=1))
        assert_outputs_equal(snapshot, first)


class TestUnfoldableBatchNorm:
    """The plan compiles streamlined graphs only: a BatchNorm node left
    in the graph fails the compile, naming the node."""

    def test_raw_export_rejected(self):
        graph = export_model(_cnv())
        bn = next(n for n in graph.topological_order()
                  if n.op_type == "BatchNorm")
        with pytest.raises(ValueError, match="streamline") as info:
            graph.compile()
        assert repr(bn.name) in str(info.value)
        streamline(graph)
        graph.compile()

    def test_batchnorm_after_maxpool_rejected(self):
        """``streamline`` cannot absorb a BatchNorm that feeds no
        MultiThreshold; it stays, and the compile fails closed."""
        g = IRGraph("g")
        g.set_input("input", (2, 8, 8))
        g.add_tensor("t0", (2, 4, 4))
        g.add_tensor("t1", (2, 4, 4))
        g.add_node(IRNode("MaxPool", "mp", ["input"], ["t0"],
                          attrs={"kernel": 2}))
        g.add_node(IRNode("BatchNorm", "bn", ["t0"], ["t1"],
                          initializers={"scale": np.array([2.0, 0.5]),
                                        "shift": np.array([-1.0, 3.0])}))
        g.mark_output("t1")
        assert streamline(g)["batchnorms_remaining"] == 1
        with pytest.raises(ValueError, match="'bn'.*streamline"):
            compile_graph(g)

    def test_multiconsumer_conv_keeps_threshold_standalone(self):
        """A Conv feeding a graph output and an MT must not fuse."""
        rng = np.random.default_rng(1)
        g = IRGraph("g")
        g.set_input("input", (2, 6, 6))
        g.add_tensor("c0", (3, 6, 6))
        g.add_tensor("q0", (3, 6, 6))
        g.add_node(IRNode("Conv", "conv", ["input"], ["c0"],
                          attrs={"stride": 1, "padding": 1},
                          initializers={
                              "weight": rng.standard_normal((3, 2, 3, 3))}))
        g.add_node(IRNode("MultiThreshold", "mt", ["c0"], ["q0"],
                          attrs={"step": 1.0},
                          initializers={
                              "thresholds": np.tile(
                                  np.array([-0.5, 0.0, 0.5]), (3, 1)),
                              "signs": np.ones(3)}))
        g.mark_output("c0")
        g.mark_output("q0")
        plan = g.compile()
        assert plan.stats()["fused_thresholds"] == 0
        x = rng.standard_normal((2, 2, 6, 6))
        assert_outputs_equal(g.execute(x), plan.run(x))


def _engine_threshold(node, x):
    """``step × codes`` of the engine's threshold kernel on NCHW/NC ``x``
    (channels-last inside, as the plan runs it)."""
    threshold = _prepare_thresholds(node, np.float64)
    u = x.transpose(0, 2, 3, 1) if x.ndim == 4 else x
    code = np.empty(u.shape, threshold.code_dtype)
    _threshold(u, threshold, code, SimpleNamespace(threshold_seconds=0))
    if x.ndim == 4:
        code = code.transpose(0, 3, 1, 2)
    return node.attrs["step"] * code.astype(np.float64)


class TestThresholdKernels:
    """Both engine threshold paths (level sweep, searchsorted) against
    the reference executor."""

    def _node(self, thresholds, signs, step=0.5):
        return IRNode("MultiThreshold", "mt", ["x"], ["y"],
                      attrs={"step": step},
                      initializers={"thresholds": thresholds,
                                    "signs": signs})

    @pytest.mark.parametrize("levels",
                             [3, _SWEEP_MAX_LEVELS, _SWEEP_MAX_LEVELS + 1,
                              255])
    def test_tensor_path(self, levels):
        rng = np.random.default_rng(levels)
        channels = 5
        # Unsorted thresholds and mixed signs: the sort + sign transform
        # must reproduce the reference counting exactly.
        thresholds = rng.standard_normal((channels, levels))
        signs = np.where(rng.random(channels) < 0.5, -1.0, 1.0)
        node = self._node(thresholds, signs)
        x = rng.standard_normal((3, channels, 4, 4))
        ref = _multithreshold(node, x)
        np.testing.assert_array_equal(_engine_threshold(node, x), ref)

    @pytest.mark.parametrize("levels", [3, _SWEEP_MAX_LEVELS + 1])
    def test_matrix_path(self, levels):
        rng = np.random.default_rng(levels + 100)
        channels = 4
        thresholds = rng.standard_normal((channels, levels))
        signs = np.where(rng.random(channels) < 0.5, -1.0, 1.0)
        node = self._node(thresholds, signs)
        x = rng.standard_normal((6, channels))
        ref = _multithreshold(node, x)
        np.testing.assert_array_equal(_engine_threshold(node, x), ref)

    @pytest.mark.parametrize("levels",
                             [3, _SWEEP_MAX_LEVELS, _SWEEP_MAX_LEVELS + 1,
                              255])
    @pytest.mark.parametrize("shape", [(3, 5, 4, 4), (6, 5)],
                             ids=["tensor", "matrix"])
    def test_non_finite_inputs(self, levels, shape):
        """NaN crosses no level (no comparison holds for it), +inf every
        finite one and -inf none, on both paths and for either sign."""
        rng = np.random.default_rng(levels)
        channels = shape[1]
        thresholds = rng.standard_normal((channels, levels))
        signs = np.where(np.arange(channels) % 2 == 0, 1.0, -1.0)
        node = self._node(thresholds, signs)
        x = rng.standard_normal(shape)
        flat = x.reshape(-1)
        planted = {np.nan: flat[0::7], np.inf: flat[1::7],
                   -np.inf: flat[2::7]}
        for value, view in planted.items():
            view[:] = value
        ref = _multithreshold(node, x)
        got = _engine_threshold(node, x)
        np.testing.assert_array_equal(got, ref)
        assert not got[np.isnan(x)].any()

    def test_exact_threshold_boundary(self):
        """x == t is NOT counted (strict >): both paths must agree."""
        thresholds = np.array([[0.0, 1.0]])
        signs = np.ones(1)
        node = self._node(thresholds, signs, step=1.0)
        x = np.array([[[[0.0, 1.0], [-1.0, 2.0]]]])
        ref = _multithreshold(node, x)
        got = _engine_threshold(node, x)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got[0, 0], [[0, 1], [0, 2]])

    def test_searchsorted_path_in_full_plan(self, monkeypatch):
        """Force the searchsorted branch on a real exported model."""
        import repro.ir.engine as engine

        graph = export_model(_cnv(exits=False))
        streamline(graph)
        x = _batch(n=2)
        ref = graph.execute(x)
        monkeypatch.setattr(engine, "_SWEEP_MAX_LEVELS", 0)
        assert_outputs_equal(ref, graph.compile().run(x))


def _threshold_node(name, src, dst, rng, channels, levels, all_negative):
    thresholds = rng.standard_normal((channels, levels))
    signs = -np.ones(channels) if all_negative \
        else np.where(rng.random(channels) < 0.5, -1.0, 1.0)
    return IRNode("MultiThreshold", name, [src], [dst],
                  attrs={"step": float(rng.choice([0.5, 1 / 3, 2.0]))},
                  initializers={"thresholds": thresholds, "signs": signs})


_LEVELS = st.one_of(
    st.sampled_from([1, _SWEEP_MAX_LEVELS, _SWEEP_MAX_LEVELS + 1]),
    st.integers(1, _SWEEP_MAX_LEVELS + 4))


class TestGeneratedKernels:
    """Generated graphs through the pooling and level-sweep kernels:
    Conv (+ fused MultiThreshold) -> MaxPool over the Conv's transposed
    NHWC view -> standalone MultiThreshold -> Flatten -> MatMul (+ fused
    MultiThreshold). The plan equals ``graph.execute`` bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([5, 6, 8, 14]),
           pad=st.integers(0, 1),
           kernel=st.integers(1, 7), stride=st.integers(1, 7),
           levels=st.tuples(_LEVELS, _LEVELS, _LEVELS),
           all_negative=st.booleans(), seed=st.integers(0, 2**16))
    @example(size=5, pad=1, kernel=2, stride=2,
             levels=(1, _SWEEP_MAX_LEVELS, _SWEEP_MAX_LEVELS + 1),
             all_negative=True, seed=0)
    @example(size=14, pad=1, kernel=7, stride=7,
             levels=(_SWEEP_MAX_LEVELS + 1, 1, _SWEEP_MAX_LEVELS),
             all_negative=False, seed=1)
    @example(size=8, pad=0, kernel=3, stride=2,
             levels=(_SWEEP_MAX_LEVELS, _SWEEP_MAX_LEVELS + 1, 1),
             all_negative=False, seed=2)
    def test_plan_matches_interpreter(self, size, pad, kernel, stride,
                                      levels, all_negative, seed):
        conv_size = size + 2 * pad - 2
        if kernel > conv_size:
            kernel = conv_size
        pooled = (conv_size - kernel) // stride + 1
        rng = np.random.default_rng(seed)
        c_in, c_mid, classes = 3, 5, 4
        g = IRGraph("g")
        g.set_input("input", (c_in, size, size))
        g.add_tensor("c0", (c_mid, conv_size, conv_size))
        g.add_tensor("q0", (c_mid, conv_size, conv_size))
        g.add_tensor("p0", (c_mid, pooled, pooled))
        g.add_tensor("q1", (c_mid, pooled, pooled))
        g.add_tensor("f0", (c_mid * pooled * pooled,))
        g.add_tensor("m0", (classes,))
        g.add_tensor("q2", (classes,))
        g.add_node(IRNode("Conv", "conv", ["input"], ["c0"],
                          attrs={"stride": 1, "padding": pad, "kernel": 3},
                          initializers={
                              "weight": rng.standard_normal(
                                  (c_mid, c_in, 3, 3)),
                              "bias": rng.standard_normal(c_mid)}))
        g.add_node(_threshold_node("mt0", "c0", "q0", rng, c_mid, levels[0],
                                   all_negative))
        g.add_node(IRNode("MaxPool", "pool", ["q0"], ["p0"],
                          attrs={"kernel": kernel, "stride": stride}))
        g.add_node(_threshold_node("mt1", "p0", "q1", rng, c_mid, levels[1],
                                   all_negative))
        g.add_node(IRNode("Flatten", "flat", ["q1"], ["f0"]))
        g.add_node(IRNode("MatMul", "fc", ["f0"], ["m0"],
                          initializers={"weight": rng.standard_normal(
                              (classes, c_mid * pooled * pooled))}))
        g.add_node(_threshold_node("mt2", "m0", "q2", rng, classes,
                                   levels[2], all_negative))
        g.mark_output("p0")
        g.mark_output("q2")
        plan = g.compile()
        assert plan.stats()["fused_thresholds"] == 2
        x = rng.standard_normal((3, c_in, size, size))
        assert_outputs_equal(g.execute(x), plan.run(x))
        # A second run reuses the arena's byte buffers for both dtypes.
        x = rng.standard_normal((2, c_in, size, size))
        assert_outputs_equal(g.execute(x), plan.run(x))


class TestDtypePolicy:
    def test_float32_outputs(self):
        graph = export_model(_cnv())
        streamline(graph)
        plan = graph.compile(dtype=np.float32)
        outs = plan.run(_batch(n=2))
        assert all(o.dtype == np.float32 for o in outs)
        assert plan.param_dtype == np.float32

    def test_float32_close_to_float64(self):
        graph = export_model(_cnv())
        streamline(graph)
        x = _batch(n=2)
        outs64 = graph.compile().run(x)
        outs32 = graph.compile(dtype=np.float32).run(x)
        for a, b in zip(outs64, outs32):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-3)


class TestPlanInterface:
    @pytest.fixture(scope="class")
    def plan(self):
        graph = export_model(_cnv())
        streamline(graph)
        return graph.compile()

    def test_model_duck_typing(self, plan):
        assert plan.num_exits == 3  # two early exits + backbone
        assert plan.eval() is plan
        with pytest.raises(RuntimeError):
            plan.train()

    def test_stats(self, plan):
        stats = plan.stats()
        assert stats["fused_thresholds"] > 0
        assert stats["num_steps"] < stats["nodes"] + stats["fused_thresholds"]
        plan.run(_batch(n=1))
        assert plan.stats()["arena_bytes"] > 0
        assert plan.stats()["dtype"] == "float64"

    def test_evaluation_helpers_accept_plan(self, plan):
        rng = np.random.default_rng(5)
        images = rng.standard_normal((8, 3, 32, 32))
        labels = rng.integers(0, 10, size=8)
        accs = evaluate_exits(plan, images, labels)
        assert len(accs) == 3  # two exits + backbone
        top, correct = exit_scores(plan, images, labels)
        assert top.shape == (8, 3) and correct.shape == (8, 3)

    def test_timer_phases(self):
        graph = export_model(_cnv())
        streamline(graph)
        timer = PhaseTimer()
        plan = compile_graph(graph, timer=timer)
        plan.run(_batch(n=1))
        phases = timer.as_dict()["phases"]
        assert "engine_compile" in phases
        assert "engine_forward" in phases
        assert "engine_threshold" in phases


class TestRunMany:
    """run_many stacks inputs into one fused pass and re-splits: the
    per-input results are exactly the input's rows of the stacked run,
    and match standalone run() calls to the last ulp (BLAS reduction
    order inside matmul may shift with the batch size)."""

    @pytest.fixture(scope="class")
    def plan(self):
        graph = export_model(_cnv())
        streamline(graph)
        return graph.compile()

    def test_rows_of_stacked_run(self, plan):
        xs = [_batch(n=k, seed=k) for k in (1, 3, 2)]
        many = plan.run_many(xs)
        assert len(many) == len(xs)
        stacked_outs = plan.run(np.concatenate(xs, axis=0))
        row = 0
        for x, outs in zip(xs, many):
            n = x.shape[0]
            ref = [o[row:row + n] for o in stacked_outs]
            assert_outputs_equal(ref, outs)
            row += n

    def test_close_to_individual_runs(self, plan):
        xs = [_batch(n=k, seed=k) for k in (1, 3, 2)]
        for x, outs in zip(xs, plan.run_many(xs)):
            assert_outputs_equal(plan.run(x), outs, exact=False)

    def test_empty_input_list(self, plan):
        assert plan.run_many([]) == []

    def test_outputs_are_owned(self, plan):
        """Each split output must survive later plan invocations (the
        arena is reused; views into it would be clobbered)."""
        xs = [_batch(n=2, seed=9), _batch(n=2, seed=10)]
        many = plan.run_many(xs)
        snapshots = [[o.copy() for o in outs] for outs in many]
        plan.run(_batch(n=5, seed=11))  # stomp the arena
        for outs, snap in zip(many, snapshots):
            assert_outputs_equal(snap, outs)


class TestMalformedInput:
    """Both the plan and the interpreter check the batch against the
    graph's input shape and fail closed, naming the expected (C, H, W)."""

    @pytest.fixture(scope="class")
    def graph(self):
        graph = export_model(_cnv())
        streamline(graph)
        return graph

    @pytest.mark.parametrize("shape", [(2, 3, 33, 33), (2, 3, 32, 33),
                                       (3, 32, 32), (0, 3, 32, 32),
                                       (2, 32, 32, 3)],
                             ids=["both-dims", "one-dim", "rank-3", "empty",
                                  "channels-last"])
    def test_rejected(self, graph, shape):
        x = np.zeros(shape)
        for run in (graph.compile().run, graph.execute):
            with pytest.raises(ValueError, match=r"\(3, 32, 32\)"):
                run(x)

    def test_well_formed_batch_accepted(self, graph):
        x = _batch(n=1)
        assert_outputs_equal(graph.execute(x), graph.compile().run(x))
