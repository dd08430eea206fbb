"""The certified first layer of the compiled engine.

A float64 plan computes a thresholded float Conv in any summation order
and accepts a batch's codes only when every pre-activation lies outside
a rounding band around every threshold; otherwise the batch reruns the
reference step. Values planted on a threshold, and one ulp on either
side of each band edge, must fall back or pass exactly as the band says,
and the codes must always equal ``graph.execute``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PhaseTimer
from repro.ir import IRGraph, IRNode, engine, export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn.functional import conv_output_size


def _conv_graph(weight, bias, thresholds, signs, stride, padding, size,
                threshold=True):
    """input -> Conv (-> MultiThreshold, fused into the Conv's step)."""
    out_ch, in_ch, kernel, _ = weight.shape
    out = conv_output_size(size, kernel, stride, padding)
    g = IRGraph("certified")
    g.set_input("input", (in_ch, size, size))
    g.add_tensor("c0", (out_ch, out, out))
    init = {"weight": weight}
    if bias is not None:
        init["bias"] = bias
    g.add_node(IRNode("Conv", "conv", ["input"], ["c0"],
                      attrs={"stride": stride, "padding": padding,
                             "kernel": kernel},
                      initializers=init))
    if not threshold:
        g.mark_output("c0")
        return g
    g.add_tensor("q0", (out_ch, out, out))
    g.add_node(IRNode("MultiThreshold", "mt", ["c0"], ["q0"],
                      attrs={"step": 0.5},
                      initializers={"thresholds": thresholds,
                                    "signs": signs}))
    g.mark_output("q0")
    return g


def _signs(rng, channels, mode):
    if mode == "mixed":
        return np.where(rng.random(channels) < 0.5, -1.0, 1.0)
    return np.full(channels, -1.0 if mode == "negative" else 1.0)


def _run(graph, x, chunk_rows=engine._CHUNK_ROWS):
    """``(codes, fallback batches)`` of one fresh plan run; asserts the
    codes equal the interpreter's."""
    with mock.patch.object(engine, "_CHUNK_ROWS", chunk_rows):
        plan = graph.compile()
        got = plan.run(x)
    assert plan.stats()["certified_layers"] == ["conv"]
    ref = graph.execute(x)
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)
    return got, plan.stats()["fallback_batches"]


class TestGeneratedConvs:
    """Random convolutions, with and without a pre-activation planted
    exactly on a threshold."""

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.integers(1, 3), stride=st.integers(1, 2),
           padding=st.integers(0, 2), size=st.integers(3, 9),
           in_ch=st.integers(1, 4), out_ch=st.integers(1, 5),
           levels=st.integers(1, engine._SWEEP_MAX_LEVELS),
           batch=st.integers(1, 7), chunk_rows=st.sampled_from([1, 7, 4096]),
           signs=st.sampled_from(["positive", "negative", "mixed"]),
           bias=st.booleans(), plant=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(kernel=3, stride=1, padding=0, size=6, in_ch=3, out_ch=2,
             levels=3, batch=5, chunk_rows=16, signs="negative", bias=True,
             plant=True, seed=0)
    def test_codes_equal_interpreter(self, kernel, stride, padding, size,
                                     in_ch, out_ch, levels, batch,
                                     chunk_rows, signs, bias, plant, seed):
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((out_ch, in_ch, kernel, kernel))
        b = rng.standard_normal(out_ch) if bias else None
        x = rng.standard_normal((batch, in_ch, size, size))
        thresholds = rng.standard_normal((out_ch, levels))
        if plant:
            # The reference pre-activation of the last image's last
            # pixel, used as a threshold: its value lies on it.
            pre = _conv_graph(weight, b, None, None, stride, padding, size,
                              threshold=False).execute(x)[0]
            channel = int(rng.integers(out_ch))
            thresholds[channel, rng.integers(levels)] = pre[-1, channel,
                                                            -1, -1]
        graph = _conv_graph(weight, b, thresholds,
                            _signs(rng, out_ch, signs), stride, padding,
                            size)
        _, fallbacks = _run(graph, x, chunk_rows)
        if plant:
            assert fallbacks == 1
        else:
            assert fallbacks in (0, 1)


def _planted_setup(rng, channels, levels, signs, bias, infinite):
    """A 1x1 unit-weight conv: every pre-activation is exactly
    ``sign · x`` in any order. Returns the graph, a batch whose largest
    ``|x|`` (which sets the band) sits in the first image, the compiled
    plan's certified step and that batch's untiled ``(below, above)``."""
    weight = np.zeros((channels, 1, 1, 1))
    weight[:, 0, 0, 0] = 1.0
    b = rng.uniform(-1, 1, channels) if bias else None
    thresholds = np.sort(rng.uniform(-1, 1, (channels, levels)), axis=1)
    if infinite:
        thresholds[:, 0] = -np.inf
        thresholds[:, -1] = np.inf
    s = _signs(rng, channels, signs)
    graph = _conv_graph(weight, b, thresholds, s, 1, 0, 4)
    x = rng.uniform(-1, 1, (3, 1, 4, 4))
    x[0, 0, 0, 0] = 4.0
    plan = graph.compile()
    step = plan.steps[0]
    assert isinstance(step, engine._CertifiedConvStep)
    bands = step._bands(x, plan._arena)
    below, above = (np.array(a.reshape(levels, -1, channels)[:, 0])
                    for a in bands)
    return graph, x, s, step, below, above


class TestPlantedBands:
    """Values planted on a threshold and one ulp beside each band edge.

    A batch is accepted iff no value ``y`` has ``below < y <= above``:
    ``below`` and ``nextafter(above, inf)`` pass, ``nextafter(below,
    inf)`` and ``above`` fall back, and so does a value on the
    (bias-folded) threshold itself.
    """

    PLACES = {"on": 1, "inside_low": 1, "inside_high": 1,
              "outside_low": 0, "outside_high": 0}

    @settings(max_examples=60, deadline=None)
    @given(place=st.sampled_from(sorted(PLACES)),
           channels=st.integers(1, 3), levels=st.integers(1, 6),
           signs=st.sampled_from(["positive", "negative", "mixed"]),
           bias=st.booleans(), infinite=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_band_edges(self, place, channels, levels, signs, bias,
                        infinite, seed):
        rng = np.random.default_rng(seed)
        graph, x, s, step, below, above = _planted_setup(
            rng, channels, levels, signs, bias, infinite)
        finite = np.flatnonzero(np.isfinite(step.v_shift[:, 0]))
        if infinite and levels <= 2 or not finite.size:
            return  # every threshold infinite: nothing to plant on
        channel = int(rng.integers(channels))
        level = int(rng.choice(np.flatnonzero(
            np.isfinite(step.v_shift[:, channel]))))
        lo, hi = below[level, channel], above[level, channel]
        y = {"on": step.v_shift[level, channel],
             "inside_low": np.nextafter(lo, np.inf), "inside_high": hi,
             "outside_low": lo,
             "outside_high": np.nextafter(hi, np.inf)}[place]
        # Last image, last pixel: a later chunk than the largest |x|.
        x[-1, 0, -1, -1] = s[channel] * y
        _, fallbacks = _run(graph, x, chunk_rows=16)
        assert fallbacks == self.PLACES[place]

    @pytest.mark.parametrize("signs", ["positive", "negative"])
    def test_infinite_thresholds_get_no_band(self, signs):
        """``±inf`` thresholds are exact: ``below == above == ±inf``
        (``inf − inf`` would make both counts agree on a wrong code)."""
        rng = np.random.default_rng(3)
        graph, x, _, step, below, above = _planted_setup(
            rng, 2, 4, signs, True, True)
        assert np.array_equal(below[[0, -1]], step.v_shift[[0, -1]])
        assert np.array_equal(above[[0, -1]], step.v_shift[[0, -1]])
        assert np.isinf(below[[0, -1]]).all()
        assert np.isfinite(below[1:-1]).all()
        assert (below[1:-1] < step.v_shift[1:-1]).all()
        assert (above[1:-1] > step.v_shift[1:-1]).all()
        _, fallbacks = _run(graph, x)
        assert fallbacks == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_takes_reference_step(self, value):
        rng = np.random.default_rng(4)
        graph, x, _, step, _, _ = _planted_setup(rng, 2, 3, "mixed", True,
                                                 False)
        x[1, 0, 2, 1] = value
        assert step._bands(x, graph.compile()._arena) is None
        _, fallbacks = _run(graph, x)
        assert fallbacks == 1


class TestPlanIntegration:
    def _cnv_graph(self):
        graph = export_model(build_cnv(
            CNVConfig(width_scale=0.25, seed=0),
            ExitsConfiguration.paper_default(pruned=True)))
        streamline(graph)
        return graph

    def test_first_layer_is_certified_in_float64_only(self):
        graph = self._cnv_graph()
        x = np.random.default_rng(5).standard_normal((4, 3, 32, 32))
        plan = graph.compile()
        for a, b in zip(graph.execute(x), plan.run(x)):
            np.testing.assert_array_equal(a, b)
        stats = plan.stats()
        assert stats["certified_layers"] == ["seg0/b0_conv0"]
        assert stats["fallback_batches"] == 0
        plan32 = graph.compile(dtype=np.float32)
        assert plan32.stats()["certified_layers"] == []
        assert plan32.stats()["fallback_batches"] == 0

    def test_step_profile(self):
        """A timer records every step as ``engine_step/<name>``; the
        outputs do not change."""
        graph = self._cnv_graph()
        x = np.random.default_rng(6).standard_normal((3, 3, 32, 32))
        timer = PhaseTimer()
        timed = graph.compile(timer=timer)
        for _ in range(2):
            got = timed.run(x)
        for a, b in zip(graph.compile().run(x), got):
            np.testing.assert_array_equal(a, b)
        phases = timer.as_dict()["phases"]
        names = [s["name"] for s in timed.stats()["steps"]]
        for name in names:
            assert phases[f"engine_step/{name}"]["count"] == 2
        steps = [p for p in phases if p.startswith("engine_step/")]
        assert len(steps) == len(set(names))
