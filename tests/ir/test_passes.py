"""Streamlining transformations: BN absorption must preserve function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import IRGraph, IRNode, export_model, streamline, with_widths
from repro.ir.passes import (_fold_affine_into_thresholds, absorb_batchnorm,
                              count_unabsorbed_batchnorms)
from repro.models import CNVConfig, ExitsConfiguration, build_cnv


def bn_mt_graph(scale, shift, thresholds=None, signs=None):
    """input -> BatchNorm -> MultiThreshold graph over C channels."""
    c = len(scale)
    levels = 3
    thresholds = thresholds if thresholds is not None else np.tile(
        np.array([0.25, 0.5, 0.75]), (c, 1))
    signs = signs if signs is not None else np.ones(c)
    g = IRGraph()
    g.set_input("input", (c,))
    g.add_tensor("bn_out", (c,))
    g.add_tensor("out", (c,), bits=2)
    g.add_node(IRNode("BatchNorm", "bn", ["input"], ["bn_out"],
                      initializers={"scale": np.asarray(scale, float),
                                    "shift": np.asarray(shift, float)}))
    g.add_node(IRNode("MultiThreshold", "mt", ["bn_out"], ["out"],
                      attrs={"step": 1.0 / levels, "act_bits": 2},
                      initializers={"thresholds": thresholds,
                                    "signs": signs}))
    g.mark_output("out")
    return g


class TestAbsorbBatchnorm:
    def test_positive_scale(self):
        g = bn_mt_graph([2.0, 0.5], [0.1, -0.2])
        x = np.random.default_rng(0).normal(size=(40, 2))
        ref = g.execute(x)[0]
        assert absorb_batchnorm(g) == 1
        assert count_unabsorbed_batchnorms(g) == 0
        np.testing.assert_allclose(g.execute(x)[0], ref, atol=1e-12)

    def test_negative_scale_flips_direction(self):
        g = bn_mt_graph([-1.5, 2.0], [0.3, 0.0])
        x = np.random.default_rng(1).normal(size=(60, 2))
        ref = g.execute(x)[0]
        absorb_batchnorm(g)
        np.testing.assert_allclose(g.execute(x)[0], ref, atol=1e-12)

    def test_zero_scale_constant_output(self):
        g = bn_mt_graph([0.0], [0.6])
        x = np.random.default_rng(2).normal(size=(20, 1))
        ref = g.execute(x)[0]
        assert np.unique(ref).size == 1  # constant regardless of input
        absorb_batchnorm(g)
        np.testing.assert_allclose(g.execute(x)[0], ref, atol=1e-12)

    def test_bn_without_threshold_kept(self):
        g = IRGraph()
        g.set_input("input", (2,))
        g.add_tensor("o", (2,))
        g.add_node(IRNode("BatchNorm", "bn", ["input"], ["o"],
                          initializers={"scale": np.ones(2),
                                        "shift": np.zeros(2)}))
        g.mark_output("o")
        assert absorb_batchnorm(g) == 0
        assert count_unabsorbed_batchnorms(g) == 1


def fold_per_channel(thresholds, signs, scale, shift):
    """The fold as a loop over channels and NumPy scalars: the oracle the
    vectorized :func:`_fold_affine_into_thresholds` must match bit for
    bit, NumPy's scalar dtype promotion included."""
    c, _ = thresholds.shape
    new_t = np.empty_like(thresholds, dtype=np.float64)
    new_s = signs.astype(np.float64).copy()
    for ch in range(c):
        a = scale[ch]
        b = shift[ch]
        if a == 0.0:
            crossed = (signs[ch] * b) > (signs[ch] * thresholds[ch])
            new_t[ch] = np.where(crossed, -np.inf, np.inf)
            new_s[ch] = 1.0
        else:
            new_t[ch] = (thresholds[ch] - b) / a
            new_s[ch] = signs[ch] * np.sign(a)
            if a < 0:
                new_t[ch] = new_t[ch][::-1]
    return new_t, new_s


_DTYPES = st.sampled_from([np.float32, np.float64])


class TestFoldVectorized:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), channels=st.integers(1, 24),
           levels=st.integers(1, 15), t_dtype=_DTYPES, s_dtype=_DTYPES,
           a_dtype=_DTYPES, b_dtype=_DTYPES,
           special=st.lists(st.sampled_from(
               [0.0, -0.0, np.nan, -1.0, "neg", "tie"]), max_size=8))
    def test_bit_identical_to_per_channel_loop(
            self, seed, channels, levels, t_dtype, s_dtype, a_dtype,
            b_dtype, special):
        rng = np.random.default_rng(seed)
        thresholds = np.sort(rng.normal(size=(channels, levels)),
                             axis=1).astype(t_dtype)
        signs = rng.choice([-1.0, 1.0], size=channels).astype(s_dtype)
        scale = rng.lognormal(size=channels).astype(a_dtype)
        shift = rng.normal(size=channels).astype(b_dtype)
        for i, kind in enumerate(special):
            ch = i % channels
            if kind == "neg":
                scale[ch] = -abs(scale[ch])
            elif kind == "tie":  # a constant BN output on a threshold
                scale[ch] = 0.0
                shift[ch] = thresholds[ch, levels // 2]
            else:
                scale[ch] = kind
        args = (thresholds, signs, scale, shift)
        with np.errstate(divide="ignore", invalid="ignore"):
            want_t, want_s = fold_per_channel(*args)
        got_t, got_s = _fold_affine_into_thresholds(*args)
        assert got_t.dtype == want_t.dtype and got_s.dtype == want_s.dtype
        assert got_t.tobytes() == want_t.tobytes()
        assert got_s.tobytes() == want_s.tobytes()


class TestStreamlineCNV:
    @pytest.fixture(scope="class")
    def model_graph(self):
        model = build_cnv(CNVConfig(width_scale=0.125, seed=4),
                          ExitsConfiguration.paper_default())
        model.eval()
        return model, export_model(model)

    def test_all_bns_absorbed(self, model_graph):
        _, graph = model_graph
        report = streamline(graph)
        assert report["batchnorms_remaining"] == 0
        assert report["batchnorms_absorbed"] == 12

    def test_function_preserved(self, model_graph):
        model, graph = model_graph
        x = np.random.default_rng(5).normal(size=(4, 3, 32, 32))
        ref = model.forward(x)
        streamline(graph)
        out = graph.execute(x)
        for a, b in zip(ref, out):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_streamline_idempotent(self, model_graph):
        _, graph = model_graph
        streamline(graph)
        report = streamline(graph)
        assert report["batchnorms_absorbed"] == 0


class TestWithWidths:
    """A weightless copy of an exported CNV at another width matches the
    export of the model built at that width, shape for shape."""

    def _graphs(self):
        exits = ExitsConfiguration.paper_default()
        narrow = build_cnv(CNVConfig(width_scale=0.125, seed=0), exits)
        wide = build_cnv(CNVConfig(width_scale=0.5, seed=0), exits)
        graphs = []
        for model in (narrow, wide):
            graph = export_model(model)
            streamline(graph)
            graphs.append(graph)
        widths = {layer.name: layer.params["weight"].shape[0]
                  for layer in wide.all_layers()
                  if layer.params.get("weight") is not None}
        return graphs, widths

    def test_matches_the_wide_export(self):
        (narrow, wide), widths = self._graphs()
        copy = with_widths(narrow, widths)
        assert {n: t.shape for n, t in copy.tensors.items()} == \
            {n: t.shape for n, t in wide.tensors.items()}
        assert {n: t.bits for n, t in copy.tensors.items()} == \
            {n: t.bits for n, t in wide.tensors.items()}
        assert [(n.op_type, n.name, n.inputs, n.outputs)
                for n in copy.nodes] == \
            [(n.op_type, n.name, n.inputs, n.outputs) for n in wide.nodes]
        for node, src in zip(copy.nodes, narrow.nodes):
            if node.op_type in ("Conv", "MatMul"):
                assert node.initializers == {}
                weight = src.initializers["weight"]
                assert node.attrs["density"] == \
                    np.count_nonzero(weight) / weight.size
            elif node.op_type == "MultiThreshold":
                assert node.initializers["thresholds"].shape == \
                    wide.node_by_name(node.name) \
                        .initializers["thresholds"].shape
        assert narrow.nodes[0].initializers["weight"].shape[0] == 8

    def test_missing_width_raises(self):
        (narrow, _), widths = self._graphs()
        del widths["fc1"]
        with pytest.raises(ValueError, match="fc1"):
            with_widths(narrow, widths)
