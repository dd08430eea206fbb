"""Per-kernel microbenchmarks for the compiled inference engine.

Compares, at the kernel level, the fused engine's building blocks
against the reference executors they replace:

* **MultiThreshold** — the reference broadcast-compare (rank-5 temp,
  chunked) vs the engine's level-sweep (few levels) and per-channel
  ``searchsorted`` (many levels) paths writing integer codes; all three
  must produce identical values.
* **im2col** — the allocating :func:`repro.nn.functional.im2col` vs
  :func:`repro.nn.functional.im2col_into` (the engine's and the
  trainer's kernel) writing into a preallocated buffer.
* **full forward** — interpreted :meth:`IRGraph.execute` vs the compiled
  :class:`~repro.ir.engine.ExecutionPlan` on the CNV smoke model.

These run without the heavy library fixtures — a bare
``pytest benchmarks/bench_kernels.py`` is seconds-scale.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ir import IRNode, export_model, streamline
from repro.ir.engine import _prepare_thresholds, _threshold
from repro.ir.executors import _multithreshold
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn.functional import conv_output_size, im2col, im2col_into

_ROUNDS = dict(rounds=3, iterations=1, warmup_rounds=1)


def _threshold_case(levels: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    channels = 64
    x = rng.standard_normal((32, channels, 16, 16))
    thresholds = np.sort(rng.standard_normal((channels, levels)), axis=1)
    signs = np.ones(channels)
    node = IRNode(op_type="MultiThreshold", name="mt", inputs=["x"],
                  outputs=["y"], attrs={"step": 1.0},
                  initializers={"thresholds": thresholds, "signs": signs})
    return x, node


@pytest.mark.parametrize("levels", [3, 255], ids=["L3", "L255"])
def test_threshold_reference(benchmark, levels):
    x, node = _threshold_case(levels)
    benchmark.pedantic(_multithreshold, args=(node, x), **_ROUNDS)


def _engine_codes(benchmark, node, u):
    """Time the engine's threshold kernel on channels-last ``u``."""
    threshold = _prepare_thresholds(node, np.float64)
    code = np.empty(u.shape, threshold.code_dtype)
    plan = SimpleNamespace(threshold_seconds=0.0)
    benchmark.pedantic(_threshold, args=(u, threshold, code, plan),
                       **_ROUNDS)
    return code


@pytest.mark.parametrize("levels", [3, 255], ids=["L3", "L255"])
def test_threshold_engine_tensor(benchmark, levels):
    """Engine standalone path: an NCHW tensor read channels-last (sweep
    for few levels, searchsorted for many)."""
    x, node = _threshold_case(levels)
    ref = _multithreshold(node, x)
    code = _engine_codes(benchmark, node, x.transpose(0, 2, 3, 1))
    np.testing.assert_array_equal(code.transpose(0, 3, 1, 2), ref)


@pytest.mark.parametrize("levels", [3, 255], ids=["L3", "L255"])
def test_threshold_engine_matrix(benchmark, levels):
    """Engine fused path: a contiguous channels-last matrix."""
    x, node = _threshold_case(levels)
    ref = _multithreshold(node, x)
    m = np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1]))
    code = _engine_codes(benchmark, node, m)
    np.testing.assert_array_equal(
        code, ref.transpose(0, 2, 3, 1).reshape(-1, x.shape[1]))


def _im2col_case():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((32, 16, 32, 32))
    kernel, stride, padding = 3, 1, 1
    out_h = conv_output_size(x.shape[2], kernel, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel, stride, padding)
    return x, kernel, stride, padding, out_h, out_w


def test_im2col_reference(benchmark):
    x, kernel, stride, padding, _, _ = _im2col_case()
    benchmark.pedantic(im2col, args=(x, kernel, stride, padding), **_ROUNDS)


def test_im2col_engine_preallocated(benchmark):
    x, kernel, stride, padding, out_h, out_w = _im2col_case()
    n, c = x.shape[0], x.shape[1]
    cols = np.empty((n * out_h * out_w, c * kernel * kernel))
    got = benchmark.pedantic(
        im2col_into, args=(x, kernel, stride, padding, cols),
        **_ROUNDS)
    ref = im2col(x, kernel, stride, padding)
    np.testing.assert_array_equal(got, ref)


@pytest.fixture(scope="module")
def cnv_graph():
    model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                      ExitsConfiguration.paper_default(pruned=True))
    graph = export_model(model)
    streamline(graph)
    return graph


def test_forward_interpreted(benchmark, cnv_graph):
    x = np.random.default_rng(2).standard_normal((32, 3, 32, 32))
    benchmark.pedantic(cnv_graph.execute, args=(x,), **_ROUNDS)


def test_forward_compiled(benchmark, cnv_graph):
    x = np.random.default_rng(2).standard_normal((32, 3, 32, 32))
    plan = cnv_graph.compile()
    got = benchmark.pedantic(plan.run, args=(x,), **_ROUNDS)
    ref = cnv_graph.execute(x)
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)


def test_forward_compiled_float32(benchmark, cnv_graph):
    x = np.random.default_rng(2).standard_normal((32, 3, 32, 32))
    plan = cnv_graph.compile(dtype=np.float32)
    benchmark.pedantic(plan.run, args=(x,), **_ROUNDS)
