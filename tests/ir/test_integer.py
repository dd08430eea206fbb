"""Integer MVTU layers of the compiled engine.

A Conv/MatMul whose input is MultiThreshold codes, whose weights lie on
a grid and whose output is thresholded runs as an exact integer step.
Its codes must equal the float oracle's bit for bit, and a layer the
compile-time guard cannot clear must fall back to the float step.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AdaPExConfig
from repro.core.design_time import LibraryGenerator
from repro.ir import IRGraph, IRNode, engine, export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.pruning import prune_model

_ELIGIBLE_FLOAT = {"first layer", "graph output"}


def _assert_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)


def _float_only(graph, **kwargs):
    """The plan with every layer on the float path: the oracle a float32
    plan's integer layers must reproduce."""
    with mock.patch.object(engine, "_integer_operands",
                           side_effect=lambda layers, dtype:
                           ["forced"] * len(layers)):
        plan = graph.compile(**kwargs)
    assert plan.stats()["integer_layers"] == 0
    return plan


def _threshold(name, src, dst, thresholds, signs, step):
    return IRNode("MultiThreshold", name, [src], [dst],
                  attrs={"step": step},
                  initializers={"thresholds": thresholds, "signs": signs})


def _signs(rng, channels, mode):
    if mode == "positive":
        return np.ones(channels)
    if mode == "negative":
        return -np.ones(channels)
    return np.where(rng.random(channels) < 0.5, -1.0, 1.0)


def _spread(rng, centre, scale, channels, levels):
    """Thresholds around the reachable pre-activation range."""
    return centre[:, None] + scale * rng.standard_normal((channels, levels))


def grid_graph(seed, levels, grid, pad, stride, pool, signs_mode):
    """input -> float Conv + MT (first layer) -> integer-grid Conv + MT
    -> [MaxPool] -> Flatten -> integer-grid MatMul + MT -> logits.

    ``grid`` is the largest |q| (1: ternary). Outputs: the logits and
    the integer Conv's codes (decoded).
    """
    rng = np.random.default_rng(seed)
    c_in, c0, c1, hidden, classes, size = 2, 4, 5, 6, 3, 9
    step0, step1, step2 = (float(rng.choice([0.5, 1 / 3, 0.1, 2.0]))
                           for _ in range(3))
    s1 = (size + 2 * pad - 3) // stride + 1
    sp = s1 // 2 if pool else s1
    g = IRGraph("grid")
    g.set_input("input", (c_in, size, size))
    for name, shape in [("c0", (c0, size, size)), ("q0", (c0, size, size)),
                        ("c1", (c1, s1, s1)), ("q1", (c1, s1, s1)),
                        ("p1", (c1, sp, sp)), ("f1", (c1 * sp * sp,)),
                        ("m2", (hidden,)), ("q2", (hidden,)),
                        ("logits", (classes,))]:
        g.add_tensor(name, shape)
    g.add_node(IRNode("Conv", "conv0", ["input"], ["c0"],
                      attrs={"stride": 1, "padding": 1},
                      initializers={
                          "weight": rng.standard_normal((c0, c_in, 3, 3)),
                          "bias": rng.standard_normal(c0)}))
    g.add_node(_threshold("mt0", "c0", "q0",
                          rng.standard_normal((c0, levels[0])),
                          _signs(rng, c0, signs_mode), step0))

    g_w = float(rng.choice([0.25, 0.3, 1 / 7, 1.5]))
    q1 = rng.integers(-grid, grid + 1, size=(c1, c0, 3, 3))
    q1[0, 0, 0, 0] = 1  # the grid step itself occurs
    bias1 = rng.standard_normal(c1) * g_w * step0
    scale1 = g_w * step0 * np.sqrt(q1[0].size) * grid * max(levels[0], 1)
    g.add_node(IRNode("Conv", "conv1", ["q0"], ["c1"],
                      attrs={"stride": stride, "padding": pad},
                      initializers={"weight": q1 * g_w, "bias": bias1}))
    g.add_node(_threshold("mt1", "c1", "q1",
                          _spread(rng, bias1, scale1 / 2, c1, levels[1]),
                          _signs(rng, c1, signs_mode), step1))
    if pool:
        g.add_node(IRNode("MaxPool", "pool", ["q1"], ["p1"],
                          attrs={"kernel": 2, "stride": 2}))
    else:
        g.add_tensor("q1_id", (c1, s1, s1))
        g.add_node(IRNode("DuplicateStreams", "dup", ["q1"], ["p1", "q1_id"]))
    g.add_node(IRNode("Flatten", "flat", ["p1"], ["f1"]))

    g_w2 = float(rng.choice([0.5, 0.2, 3.0]))
    q2 = rng.integers(-grid, grid + 1, size=(hidden, c1 * sp * sp))
    q2[0, 0] = -1
    bias2 = rng.standard_normal(hidden) * g_w2 * step1
    scale2 = g_w2 * step1 * np.sqrt(q2.shape[1]) * grid * levels[1]
    g.add_node(IRNode("MatMul", "fc0", ["f1"], ["m2"],
                      initializers={"weight": q2 * g_w2, "bias": bias2}))
    g.add_node(_threshold("mt2", "m2", "q2",
                          _spread(rng, bias2, scale2 / 2, hidden, levels[2]),
                          _signs(rng, hidden, signs_mode), step2))
    g.add_node(IRNode("MatMul", "fc1", ["q2"], ["logits"],
                      initializers={
                          "weight": rng.standard_normal((classes, hidden))}))
    g.mark_output("logits")
    g.mark_output("q1")
    return g


_LEVELS = st.integers(1, 17)


class TestRandomGridGraphs:
    """Generated integer-grid graphs: the plan equals the interpreter bit
    for bit, with every eligible layer on the integer path."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16),
           levels=st.tuples(_LEVELS, _LEVELS, _LEVELS),
           grid=st.sampled_from([1, 2, 7]),
           pad=st.integers(0, 1), stride=st.integers(1, 2),
           pool=st.booleans(),
           signs_mode=st.sampled_from(["positive", "negative", "mixed"]),
           batch=st.integers(1, 7), chunk_rows=st.sampled_from([1, 50, 4096]))
    @example(seed=0, levels=(1, 17, 16), grid=1, pad=1, stride=1, pool=True,
             signs_mode="mixed", batch=5, chunk_rows=100)
    def test_matches_interpreter(self, seed, levels, grid, pad, stride, pool,
                                 signs_mode, batch, chunk_rows):
        g = grid_graph(seed, levels, grid, pad, stride, pool, signs_mode)
        x = np.random.default_rng(seed + 1).standard_normal(
            (batch, 2, 9, 9))
        # Small chunks: a batch that is not a multiple of the chunk.
        with mock.patch.object(engine, "_CHUNK_ROWS", chunk_rows):
            plan = g.compile()
            stats = plan.stats()
            assert stats["integer_layers"] == 2, stats["float_layers"]
            assert stats["float_layers"] == {"conv0": "first layer",
                                             "fc1": "graph output"}
            _assert_equal(g.execute(x), plan.run(x))

            # float32's unit roundoff widens the guard band: some layers
            # may fall back, and every integer one matches the float path.
            plan32 = g.compile(dtype=np.float32)
            _assert_equal(_float_only(g, dtype=np.float32).run(x),
                          plan32.run(x))


def _planted(offset_ulps, channel, dtype=np.float64):
    """A grid graph whose integer Conv has one threshold exactly on a
    lattice value (``offset_ulps`` = 0) or that many ulps above it."""
    g = grid_graph(3, (3, 3, 3), 1, 0, 1, True, "positive")
    conv = g.node_by_name("conv1")
    mt = g.node_by_name("mt1")
    # Powers of two: g = g_w · step is exact and so is b + A·g.
    conv.initializers["weight"] = np.sign(conv.initializers["weight"]) * 0.5
    conv.initializers["bias"] = np.full(5, 0.75)
    g.node_by_name("mt0").attrs["step"] = 0.25
    t = 0.75 + 3 * 0.125
    for _ in range(offset_ulps):
        t = np.nextafter(t, np.inf)
    mt.initializers["thresholds"][channel, 1] = t
    return g


class TestGuardBand:
    @pytest.mark.parametrize("offset_ulps,channel", [(0, 2), (1, 4)],
                             ids=["on-lattice", "one-ulp-off"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_planted_threshold_falls_back(self, offset_ulps, channel, dtype):
        g = _planted(offset_ulps, channel)
        plan = g.compile(dtype=dtype)
        assert plan.stats()["float_layers"]["conv1"] == \
            f"guard band (channel {channel})"
        assert plan.stats()["integer_layers"] == 1  # fc0 stays integer
        x = np.random.default_rng(4).standard_normal((6, 2, 9, 9))
        if dtype == np.float64:
            _assert_equal(g.execute(x), plan.run(x))
        else:
            _assert_equal(_float_only(g, dtype=dtype).run(x), plan.run(x))

    def test_unplanted_twin_is_integer(self):
        g = _planted(0, 2)
        g.node_by_name("mt1").initializers["thresholds"][2, 1] += 0.01
        plan = g.compile()
        assert plan.stats()["integer_layers"] == 2
        x = np.random.default_rng(4).standard_normal((6, 2, 9, 9))
        _assert_equal(g.execute(x), plan.run(x))


class TestFallbackReasons:
    def _reason(self, g, layer="conv1"):
        plan = g.compile()
        x = np.random.default_rng(0).standard_normal((3, 2, 9, 9))
        _assert_equal(g.execute(x), plan.run(x))
        return plan.stats()["float_layers"].get(layer)

    def test_off_grid_weights(self):
        g = grid_graph(1, (3, 3, 3), 1, 0, 1, True, "mixed")
        g.node_by_name("conv1").initializers["weight"][1, 0, 0, 0] *= 1.1
        assert self._reason(g) == "off-grid weights"

    def test_accumulator_bound(self):
        g = grid_graph(1, (255, 3, 3), 1, 0, 1, True, "mixed")
        w = g.node_by_name("conv1").initializers["weight"]
        w *= 2 ** 12  # |q| = 2^12, x 255 levels x ~24 nonzero taps > 2^24
        w[0, 0, 0, 0] = np.abs(w).max() / 2 ** 12
        assert self._reason(g) == "accumulator bound"

    def test_non_positive_step(self):
        g = grid_graph(1, (3, 3, 3), 1, 0, 1, False, "mixed")
        g.node_by_name("mt0").attrs["step"] = -0.5
        assert self._reason(g) == "non-positive step"

    def test_negative_step_pools_decoded_values(self):
        g = grid_graph(2, (3, 3, 3), 1, 0, 1, True, "mixed")
        g.node_by_name("mt1").attrs["step"] = -0.5
        assert self._reason(g, "fc0") == "float input"
        steps = {s["name"]: s for s in g.compile().stats()["steps"]}
        assert steps["pool"]["domain"] == "float"


class TestStepDomains:
    def test_cnv_smoke_plan(self):
        graph = export_model(build_cnv(
            CNVConfig(width_scale=0.25, seed=0),
            ExitsConfiguration.paper_default(pruned=True)))
        streamline(graph)
        stats = graph.compile().stats()
        by_name = {s["name"]: s for s in stats["steps"]}
        assert by_name["seg0/b0_conv0"] == {
            "name": "seg0/b0_conv0", "op": "Conv", "domain": "float",
            "reason": "first layer"}
        assert by_name["seg0/b0_conv1"]["domain"] == "integer"
        assert by_name["seg0/b0_pool"]["domain"] == "integer"
        assert by_name["seg2/flatten"]["domain"] == "integer"
        decodes = [s for s in stats["steps"] if s["op"] == "Decode"]
        assert len(decodes) == 3  # one per logit layer
        assert set(stats["float_layers"].values()) == _ELIGIBLE_FLOAT
        assert stats["integer_layers"] == 11


@pytest.fixture(scope="module")
def trained_base():
    generator = LibraryGenerator(AdaPExConfig.quick(seed=0))
    return generator.train_base_model(ExitsConfiguration.paper_default())


class TestTrainedQuickCNV:
    """No eligible layer of a trained quick-width CNV falls back."""

    @pytest.mark.parametrize("rate", [0.0, 0.4, 0.8])
    def test_every_eligible_layer_is_integer(self, trained_base, rate):
        model = trained_base
        if rate:
            model, _ = prune_model(trained_base, rate)
        model.eval()
        graph = export_model(model)
        streamline(graph)
        plan = graph.compile()
        reasons = plan.stats()["float_layers"]
        assert set(reasons.values()) == _ELIGIBLE_FLOAT, reasons
        assert plan.stats()["integer_layers"] == 11
        x = np.random.default_rng(7).standard_normal((8, 3, 32, 32))
        _assert_equal(graph.execute(x), plan.run(x))
        plan32 = graph.compile(dtype=np.float32)
        assert plan32.stats()["integer_layers"] > 0
        _assert_equal(_float_only(graph, dtype=np.float32).run(x),
                      plan32.run(x))


def _reference_operands(weight, bias, threshold, codes, dtype):
    """The guard one layer at a time: the oracle of the batched
    ``engine._integer_operands``."""
    if not codes.step > 0:
        return "non-positive step"
    w = weight.reshape(weight.shape[0], -1)
    nonzero = np.abs(w[w != 0])
    g_w = nonzero.min() if nonzero.size else dtype.type(1)
    q = np.round(w / g_w)
    if not np.array_equal(q * g_w, w):
        return "off-grid weights"
    if threshold.signs is not None:
        q = q * threshold.signs[:, None]
    amax = np.abs(q).sum(axis=1, dtype=np.float64) * codes.levels
    if amax.max() >= engine._ACC_LIMIT:
        return "accumulator bound"
    g = float(g_w) * float(dtype.type(codes.step))
    b = np.zeros(len(w)) if bias is None else bias.astype(np.float64)
    sb = b if threshold.signs is None else b * threshold.signs
    x = (threshold.v.astype(np.float64) - sb[:, None]) / g
    n = w.shape[1] + 3
    u = float(np.finfo(dtype).eps) / 2
    eps = n * u / (1 - n * u) * (amax + 2 + np.abs(b) / g)
    hi = amax[:, None]
    gap = np.abs(x - np.clip(np.round(x), -hi, hi))
    bad = ~(gap > 2 * eps[:, None]).all(axis=1)
    if bad.any():
        return f"guard band (channel {int(np.argmax(bad))})"
    thresholds = np.floor(np.clip(x, -hi - 1, hi)).astype(np.float32)
    return q.astype(np.float32), thresholds


def _guard_inputs(graph, dtype):
    """The ``(weight, bias, threshold, codes)`` candidates a compile of
    ``graph`` hands the guard."""
    seen = []
    batched = engine._integer_operands

    def spy(layers, dt):
        seen.extend(layers)
        return batched(layers, dt)

    with mock.patch.object(engine, "_integer_operands", side_effect=spy):
        graph.compile(dtype=dtype)
    return seen


def _guard_graphs():
    graphs = [grid_graph(seed, levels, grid, 0, 1, True, signs)
              for seed, levels, grid, signs in [
                  (0, (3, 3, 3), 1, "positive"), (1, (15, 3, 7), 3, "mixed"),
                  (2, (1, 17, 16), 7, "negative"), (3, (255, 3, 3), 1,
                                                    "mixed")]]
    graphs += [_planted(0, 2), _planted(1, 4)]
    off_grid = grid_graph(1, (3, 3, 3), 1, 0, 1, True, "mixed")
    off_grid.node_by_name("conv1").initializers["weight"][1, 0, 0, 0] *= 1.1
    bound = grid_graph(1, (255, 3, 3), 1, 0, 1, True, "mixed")
    w = bound.node_by_name("conv1").initializers["weight"]
    w *= 2 ** 12
    w[0, 0, 0, 0] = np.abs(w).max() / 2 ** 12
    negative = grid_graph(1, (3, 3, 3), 1, 0, 1, False, "mixed")
    negative.node_by_name("mt0").attrs["step"] = -0.5
    return graphs + [off_grid, bound, negative]


class TestBatchedGuard:
    """All layers checked in one call decide exactly what one call per
    layer decides: reasons, integer weights and integer thresholds."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_layer_reference(self, dtype):
        dtype = np.dtype(dtype)
        # Layers of several graphs in one call: mixed level counts,
        # signs, biases and failure reasons side by side.
        layers = [c for g in _guard_graphs() for c in _guard_inputs(g, dtype)]
        got = engine._integer_operands(layers, dtype)
        reasons = set()
        for layer, result in zip(layers, got, strict=True):
            ref = _reference_operands(*layer, dtype)
            if isinstance(ref, str):
                assert result == ref
                reasons.add(ref.split(" (")[0])
                continue
            q, threshold = result
            assert q.dtype == threshold.v.dtype == np.float32
            np.testing.assert_array_equal(q, ref[0])
            np.testing.assert_array_equal(threshold.v, ref[1])
            assert threshold.signs is None
            assert threshold.code_dtype == layer[2].code_dtype
        assert reasons == {"non-positive step", "off-grid weights",
                           "accumulator bound", "guard band"}

    def test_no_candidates(self):
        assert engine._integer_operands([], np.dtype(np.float64)) == []
