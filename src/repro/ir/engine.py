"""Compiled execution engine for the IR: fused, buffer-reusing plans.

:func:`compile_graph` turns a streamlined :class:`IRGraph` into an
:class:`ExecutionPlan` — a flat list of pre-bound steps that runs the
same network function as :meth:`IRGraph.execute` but without the
per-node interpretation overhead:

* **Conv/MatMul → MultiThreshold fusion** — thresholding is applied to
  the post-GEMM ``(rows, channels)`` matrix, so the quantization step
  touches a contiguous matrix.
* **Codes between layers** — every MultiThreshold writes its level
  counts as unsigned integer codes (``uint8`` up to 255 levels) in
  channels-last (NHWC) memory, the values FINN streams between MVTUs.
  MaxPool (for ``step > 0``, where decoding is monotone), Flatten and
  DuplicateStreams pass codes through. A float consumer (an exit logit
  layer, a graph output) reads a decode step that writes
  ``code × step`` in the plan's dtype, in the layout the float oracle
  reads.
* **Integer MVTU layers** — a Conv/MatMul whose input is codes, whose
  weights lie on a grid ``q · g_w`` and whose output is thresholded runs
  as an exact integer dot product, as an MVTU does: im2col in
  ``(kh, kw, c)`` column order straight from the codes into float32, in
  row chunks of a few images; a float32 GEMM against ``q``; a comparison
  with integer-domain thresholds ``floor(sign·(t − b)/g)``,
  ``g = g_w·step``, where sign flips and the bias are folded in at
  compile time. A Flatten feeding such a MatMul is a reshape: the
  weight columns are permuted to ``(h, w, c)`` order instead.
* **Certified float Convs** — in float64 plans a thresholded float Conv
  (the first layer, whose input is the float image) computes its
  pre-activations in any order, a few images at a time: the windows are
  copied channel-major, one GEMM per chunk reads them transposed, the
  bias moves into the thresholds. A rounding certificate (below) accepts
  the batch's codes or reruns the reference step; no full-batch im2col
  is materialized unless it does.
* **Byte-wide level counting** — the reference ``MultiThreshold``
  executor materializes an ``(N, C, H, W, levels)`` broadcast temp; the
  plan compares against pre-sorted per-channel thresholds instead. Up
  to ``_SWEEP_MAX_LEVELS`` levels it sweeps the levels against
  level-major ``(L, C)`` thresholds, one contiguous row per level,
  adding each level's comparison bytes into the code array; more levels
  go through ``np.searchsorted`` (O(log L)). No rank-5 temp, identical
  codes.
* **Pooling without argmax** — MaxPool is a running ``np.maximum`` over
  the k*k strided slices of its input; the training kernel's argmax
  indices (kept for backward) are never computed.
* **Preallocated activation buffers** — a compile-time liveness scan
  assigns each intermediate tensor (and each per-step scratch) a
  reusable arena slot; repeated :meth:`ExecutionPlan.run` calls allocate
  (almost) nothing.

Step memo: a plan compiled with ``memo=`` (a :class:`StepMemo`) shares
step outputs with every other plan compiled against the same memo, as a
design-time sweep's design points do (FINN's folding snaps many pruning
rates onto the same layer widths, and the pruned-exit and unpruned-exit
variants share their backbone). At compile time each step gets an exact
content key: its kind, the plan dtype, the sample shape of its output,
the dtype, shape and bytes of every initializer and attribute of the IR
nodes fused into it (a fused MultiThreshold included), and the key of
its input, so a key spells out the whole computation back to the graph
input. The memo holds one graph input at a time, a read-only copy of the
batch, and a run whose batch differs from it bit for bit (dtype, shape
and bytes, so ``-0.0`` is not ``0.0``) drops everything held and holds
the new batch. A lookup compares the full key, not only its hash, so a
hit returns what the same computation made from the same bytes: outputs
stay bit-identical, and no certificate or integer guard is involved. A
run serves the held steps it needs, runs only the rest (a step whose
output feeds only held steps is skipped), and stores a read-only,
layout-preserving copy of each output it computed. The memo is bounded
in bytes (:data:`MEMO_BUDGET`, the batch included) and evicts least
recently used outputs; a batch larger than the budget runs memo-free.
Reuse therefore needs plans that share weights and run one batch that
fits; retrained design points or a test set split into several batches
share nothing, and the design-time sweep gives those no memo.
Plans compiled without a memo run every step, as before.

The plan runs streamlined graphs only: :func:`compile_graph` rejects a
graph that still holds a ``BatchNorm`` node (run
:func:`repro.ir.passes.streamline` first, as every flow does).

Numerical contract: the plan is **bit-identical** to the reference
executors in float64, on any BLAS.

* Float steps (the layers whose output is not thresholded, i.e. the
  exit logit layers; float32 plans' first layer; and every fallback
  below) run the float GEMM on the same operands, in the same layout, as
  the reference executor, so they hit the same BLAS path; thresholding
  performs the same float comparisons; a maximum is exact whatever the
  order of the window slices.
* A certified Conv's codes equal the reference step's because a
  run-time certificate proves it per batch. Let ``K`` be the patch
  length, ``m`` the batch's largest ``|x|``, ``w_c``/``b_c`` channel
  ``c``'s weights and bias and ``s_c`` its sign. The reference value
  ``s_c·(x·w_c + b_c)`` and the plan's any-order ``y = x·(s_c·w_c)``
  each lie within ``γ_{K+1}·(m·Σ|w_c| + |b_c|)`` of the exact sum
  (``γ_n = n·u/(1 − n·u)``, ``u`` the unit roundoff), and folding the
  bias into a threshold, ``v' = v − s_c·b_c``, rounds by at most
  ``u·|v'|``. The band is ``2·γ_{K+2}·(m·Σ|w_c| + |b_c|) + 2·u·|v'| +
  tiny`` (one more unit than the rounding needs, covering the band's
  own arithmetic; ``tiny``, the smallest normal, covers underflow), and
  the thresholds are moved out by it with outward rounding
  (``nextafter``). Codes counted against the lower and the upper
  thresholds agree everywhere only if no ``y`` lies inside a band, and
  then they equal the reference codes. Infinite thresholds (a fold's
  ``a == 0`` case) are exact and get no band. A batch whose ``m`` is not
  finite, or whose ``m·Σ|w_c| + |b_c|`` could overflow, or that fails
  the certificate, reruns the reference step; ``stats()`` counts those
  batches. Convs with more than ``_SWEEP_MAX_LEVELS`` levels and float32
  plans keep the reference step: at float32's ``u`` the band catches
  dozens of values per CNV batch, so the certificate would rarely pass.
* Integer layers are exact and BLAS-independent: every partial sum is an
  integer below 2^24, which float32 represents exactly in any summation
  order. Their codes equal the float oracle's because a compile-time
  guard proves it per output channel. The oracle's value lies within
  ``ε_c = γ_{K+3}·(g·(Σ|q_c|·code_max + 2) + |b_c|)`` of the exact
  ``A·g + b`` (``K + 2`` roundings of the dot product and bias, one of
  the weight grid product, and two lattice units for computing the
  integer thresholds themselves). The guard requires every threshold to
  lie farther than ``2·ε_c`` from every reachable lattice value
  ``b + A·g``; one ``ε_c`` covers the oracle's rounding, the other the
  rounding of the integer threshold. A layer keeps the float step if any
  channel fails the guard, if its weights are off the grid (e.g. INT8
  post-training-quantized weights), if ``Σ|q_c|·code_max ≥ 2^24`` or if
  ``step ≤ 0``; :meth:`ExecutionPlan.stats` names the reason.

Float32 plans have the same structure; their integer layers reproduce
the float32 float path's codes (the guard uses float32's ``u``).
Threshold inputs containing NaN are undefined (the oracle yields code 0,
the plan yields 0 below ``_SWEEP_MAX_LEVELS`` levels and ``levels``
above); exported models never produce NaN activations.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..nn.functional import conv_output_size, im2col_into
from .graph import IRGraph, IRNode, check_batch

__all__ = ["compile_graph", "ExecutionPlan", "StepMemo", "MEMO_BUDGET"]


# ----------------------------------------------------------------------
# threshold kernels
# ----------------------------------------------------------------------

class _Threshold(NamedTuple):
    """A MultiThreshold prepared for a step: ``#(signs·u > v_k)``."""

    lv: np.ndarray              # (L, C) level-major, each column sorted
    signs: np.ndarray | None    # None when every sign is +1
    code_dtype: np.dtype        # holds codes 0..L

    @property
    def v(self) -> np.ndarray:
        """The thresholds channel-major, ``(C, L)`` (a view)."""
        return self.lv.T

    def tile(self, reps: int) -> "_Threshold":
        """The thresholds of ``reps`` consecutive rows, laid end to end
        (see :func:`_row_tile`)."""
        if reps == 1:
            return self
        signs = None if self.signs is None else np.tile(self.signs, reps)
        return _Threshold(np.tile(self.lv, (1, reps)), signs,
                          self.code_dtype)


def _prepare_thresholds(node: IRNode, dtype) -> _Threshold:
    """Pre-sort per-channel thresholds in the sign-transformed domain.

    The reference semantics count ``#(sign*x > sign*t_k)`` per channel.
    With ``v = sign * t`` sorted ascending and ``u = sign * x``, that
    count equals ``np.searchsorted(v, u, side="left")`` (the number of
    ``v_k`` strictly below ``u``) for any threshold order. The sorted
    thresholds are stored level-major, so the level sweep compares
    against one contiguous row per level.
    """
    thresholds = node.initializers["thresholds"].astype(dtype, copy=False)
    signs = node.initializers["signs"].astype(dtype, copy=False)
    v = np.sort(signs[:, None] * thresholds, axis=1)
    return _Threshold(np.ascontiguousarray(v.T),
                      None if (signs == 1.0).all() else signs,
                      np.min_scalar_type(thresholds.shape[1]))


# Below this many levels a vectorized level sweep beats per-channel
# ``searchsorted`` (whose per-element constant dwarfs the O(log L) win
# for the 2–4 bit activations CNV actually uses). Both paths produce
# the same integer codes; the equivalence tests cover each.
_SWEEP_MAX_LEVELS = 16


def _count_levels(u: np.ndarray, lv: np.ndarray, code: np.ndarray,
                  crossed: np.ndarray | None = None) -> None:
    """``code[..., c] = #(u[..., c] > lv[k, c])`` over the levels ``k``.

    ``u`` is channels-last (any rank); ``lv`` holds each channel's
    thresholds level-major, sorted ascending per channel; ``code`` is an
    unsigned integer array of ``u``'s shape. The sweep writes each
    level's comparison as bytes (``crossed``, a bool scratch of ``u``'s
    shape, or a temporary) and adds them as ``uint8``, with no casts.
    """
    levels, c_count = lv.shape
    if levels <= _SWEEP_MAX_LEVELS:
        np.greater(u, lv[0], out=code.view(np.bool_))
        if levels > 1 and crossed is None:
            crossed = np.empty(code.shape, np.bool_)
        for k in range(1, levels):
            np.greater(u, lv[k], out=crossed)
            np.add(code, crossed.view(np.uint8), out=code)
        return
    for c in range(c_count):
        code[..., c] = np.searchsorted(lv[:, c], u[..., c], side="left")
    # ``searchsorted`` orders NaN above every level, but no comparison
    # holds for it: it crosses none, as in the sweep.
    np.copyto(code, 0, where=np.isnan(u))


# Widest row of tiled thresholds (see :func:`_row_tile`).
_TILE_WIDTH = 8192


def _row_tile(rows: int, channels: int, levels: int) -> int:
    """How many rows of a channels-last ``(rows·N, channels)`` matrix to
    compare at once.

    With few channels the level sweep's inner loop (one row) is too
    short to amortize NumPy's per-loop overhead. Viewing the matrix
    ``rows`` rows at a time, against thresholds tiled ``rows`` times,
    makes it long; the comparisons, and so the codes, are the same.
    """
    if levels > _SWEEP_MAX_LEVELS or rows * channels > _TILE_WIDTH:
        return 1
    return rows


def _threshold(m: np.ndarray, threshold: _Threshold, code: np.ndarray,
               plan: "ExecutionPlan") -> None:
    """Codes of a channels-last activation, timed as thresholding."""
    t0 = time.perf_counter()
    u = m if threshold.signs is None else m * threshold.signs
    _count_levels(u, threshold.lv, code)
    plan.threshold_seconds += time.perf_counter() - t0


# ----------------------------------------------------------------------
# integer MVTU operands
# ----------------------------------------------------------------------

class _Codes(NamedTuple):
    """What a code tensor holds: ``code × step``, codes in ``0..levels``.

    ``hw`` is the spatial size of 4-D (NHWC-stored) codes and ``None``
    for ``(N, C)`` codes; a Flatten keeps it, so an integer MatMul reads
    flattened codes in ``(h, w, c)`` order.
    """

    step: float
    levels: int
    hw: tuple | None


# float32 represents every integer of smaller magnitude exactly.
_ACC_LIMIT = 2 ** 24


def _integer_operands(layers: list, dtype) -> list:
    """``(q, threshold)`` of each layer's exact integer step, or why it
    has none.

    ``layers`` holds one ``(weight, bias, threshold, codes)`` per
    candidate layer: ``weight``/``bias``/``threshold`` are what the float
    step would use (cast to the plan's dtype) and ``codes`` describes its
    input. ``q`` is the float32 ``(out, K)`` integer weight matrix with
    sign flips folded in, in the float step's column order; the returned
    threshold holds the sorted integer-domain thresholds
    ``floor(sign·(t − b)/g)`` in float32. See the module docstring for
    the guard.

    All layers are checked together: their weights are concatenated into
    one vector and their threshold rows into one matrix per level count,
    so each reduction is one NumPy call (``reduceat`` over the layer or
    row boundaries) instead of one per layer. Every value is the same
    element-wise expression a per-layer check computes, so the results
    are too.
    """
    out: list = ["non-positive step" if not c.step > 0 else None
                 for _, _, _, c in layers]
    todo = [i for i, r in enumerate(out) if r is None]
    if not todo:
        return out
    ws = [layers[i][0].reshape(layers[i][0].shape[0], -1) for i in todo]
    ts = [layers[i][2] for i in todo]
    rows = np.array([w.shape[0] for w in ws])
    cols = np.array([w.shape[1] for w in ws])
    sizes = rows * cols
    starts = np.cumsum(sizes) - sizes
    row_starts = np.cumsum(rows) - rows
    row_cols = np.repeat(cols, rows)

    # One vector of every layer's weights. It is large, so the steps
    # below write into two scratch buffers instead of allocating a
    # temporary per operation.
    w = np.concatenate([w.ravel() for w in ws])
    a = np.abs(w)
    big = np.finfo(dtype).max
    buf = (w == 0).astype(dtype)
    buf *= big
    buf += a  # zeros -> the largest float: the min is over non-zeros
    g_w = np.minimum.reduceat(buf, starts)
    g_w[g_w == big] = 1
    g_rep = np.repeat(g_w, sizes)
    q = np.divide(w, g_rep, out=a)
    np.round(q, out=q)
    np.multiply(q, g_rep, out=buf)
    on_grid = np.logical_and.reduceat(buf == w, starts)
    levels = np.array([layers[i][3].levels for i in todo])
    np.abs(q, out=buf)
    amax = np.add.reduceat(buf, np.cumsum(row_cols) - row_cols,
                           dtype=np.float64) * np.repeat(levels, rows)
    bounded = np.maximum.reduceat(amax, row_starts) < _ACC_LIMIT

    # Lattice of reachable pre-threshold values: b + A·g, |A| <= amax.
    g = np.repeat(g_w.astype(np.float64) * np.array(
        [float(dtype.type(layers[i][3].step)) for i in todo]), rows)
    b = np.concatenate([np.zeros(len(w_)) if layers[i][1] is None
                        else layers[i][1].astype(np.float64)
                        for i, w_ in zip(todo, ws)])
    sb = b * np.concatenate([np.ones(len(w_)) if t.signs is None
                             else t.signs for t, w_ in zip(ts, ws)])
    n = row_cols + 3
    u = float(np.finfo(dtype).eps) / 2
    eps = n * u / (1 - n * u) * (amax + 2 + np.abs(b) / g)
    # Threshold rows, grouped by level count (one group in practice):
    # the guard and the integer thresholds of every row at once.
    bad = np.zeros(len(b), dtype=bool)
    int_t: list = [None] * len(ts)
    groups: dict = {}
    for k, t in enumerate(ts):
        groups.setdefault(t.v.shape[1], []).append(k)
    with np.errstate(invalid="ignore", over="ignore"):
        for sel in groups.values():
            idx = slice(None) if len(sel) == len(ts) else np.concatenate(
                [np.arange(row_starts[k], row_starts[k] + rows[k])
                 for k in sel])
            v = np.concatenate([ts[k].v for k in sel]).astype(np.float64)
            x = (v - sb[idx, None]) / g[idx, None]
            hi = amax[idx, None]
            gap = np.abs(x - np.clip(np.round(x), -hi, hi))
            bad[idx] = ~(gap > 2 * eps[idx, None]).all(axis=1)
            t32 = np.floor(np.clip(x, -hi - 1, hi)).astype(np.float32)
            row = 0
            for k in sel:
                int_t[k] = t32[row:row + rows[k]]
                row += rows[k]
    bad_layer = np.logical_or.reduceat(bad, row_starts)
    q32 = q.astype(np.float32)

    for k, i in enumerate(todo):
        r0, r1 = row_starts[k], row_starts[k] + rows[k]
        if not on_grid[k]:
            out[i] = "off-grid weights"
        elif not bounded[k]:
            out[i] = "accumulator bound"
        elif bad_layer[k]:
            first = int(np.argmax(bad[r0:r1]))
            out[i] = f"guard band (channel {first})"
        else:
            qk = q32[starts[k]:starts[k] + sizes[k]].reshape(rows[k],
                                                              cols[k])
            if ts[k].signs is not None:
                qk = qk * ts[k].signs.astype(np.float32)[:, None]
            out[i] = (qk, _Threshold(np.ascontiguousarray(int_t[k].T), None,
                                     ts[k].code_dtype))
    return out


# ----------------------------------------------------------------------
# runtime arena
# ----------------------------------------------------------------------

class _Arena:
    """Lazily grown flat byte buffers, one per compile-time slot."""

    def __init__(self, num_slots: int, dtype):
        self.dtype = np.dtype(dtype)
        self._buffers: list[np.ndarray | None] = [None] * num_slots

    def view(self, slot: int, shape: tuple, dtype=None) -> np.ndarray:
        """``shape``-shaped view of the slot, in the plan's dtype unless
        ``dtype`` is given (codes, float32 integer GEMMs)."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        n = int(np.prod(shape)) * dtype.itemsize
        buf = self._buffers[slot]
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=np.uint8)
            self._buffers[slot] = buf
        return buf[:n].view(dtype).reshape(shape)

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers if b is not None)


# ----------------------------------------------------------------------
# step memo
# ----------------------------------------------------------------------

#: Bytes a :class:`StepMemo` holds at most, its batch included.
MEMO_BUDGET = 16 * 2 ** 20


class StepMemo:
    """Outputs of compiled steps on one batch, shared by the plans
    compiled with it.

    The memo holds one graph input at a time, as a sweep's plans all run
    the same test batch: a run on any other batch drops what is held and
    holds the new one. Keys are exact (see the module docstring); the
    arrays are read-only copies, and step outputs are evicted least
    recently used once the memo would exceed :data:`MEMO_BUDGET` bytes.
    ``hits`` and ``misses`` count the steps a run needed that the memo
    served or that ran; ``evictions`` the outputs dropped for space.
    """

    def __init__(self):
        self.budget = MEMO_BUDGET
        self._batch: np.ndarray | None = None
        self._arrays: OrderedDict = OrderedDict()  # key -> read-only array
        self.nbytes = 0
        self.hits = self.misses = self.evictions = 0

    def hold(self, x: np.ndarray) -> bool:
        """Whether the memo serves batch ``x``: the held batch if they
        are equal bit for bit (``-0.0`` is not ``0.0``), else ``x``
        replaces it and everything held; ``False`` if ``x`` does not fit
        the budget (then the memo holds nothing)."""
        held = self._batch
        if held is not None and held.dtype == x.dtype \
                and held.shape == x.shape \
                and np.array_equal(_bits(held), _bits(x)):
            return True
        self._arrays.clear()
        self._batch, self.nbytes = None, 0
        if x.nbytes > self.budget:
            return False
        self._batch = _frozen_copy(x)
        self.nbytes = x.nbytes
        return True

    def get(self, key: tuple) -> np.ndarray | None:
        """The array held under ``key`` (a hit), else ``None`` (a miss)."""
        held = self._arrays.get(key)
        if held is None:
            self.misses += 1
            return None
        self.hits += 1
        self._arrays.move_to_end(key)
        return held

    def put(self, key: tuple, value: np.ndarray) -> None:
        """Hold a copy of ``value``, a step's output on the held batch,
        under ``key``; an output that cannot fit next to the batch is
        not held."""
        if self._batch.nbytes + value.nbytes > self.budget:
            return
        while self.nbytes + value.nbytes > self.budget:
            _, dropped = self._arrays.popitem(last=False)
            self.nbytes -= dropped.nbytes
            self.evictions += 1
        self._arrays[key] = _frozen_copy(value)
        self.nbytes += value.nbytes

    def stats(self) -> dict:
        """Counters and the bytes held, for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "nbytes": self.nbytes,
                "entries": len(self._arrays), "budget": self.budget}


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` in ``a``'s memory layout."""
    held = a.copy(order="K")
    held.flags.writeable = False
    return held


def _bits(a: np.ndarray) -> np.ndarray:
    """The bytes of ``a`` as unsigned integers of its item size: equal
    exactly when the bits are (unlike ``-0.0 == 0.0`` or a NaN)."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def _frozen(value):
    """An exact, hashable stand-in for an attribute or initializer."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return (type(value).__name__, repr(value))


def _node_key(node: IRNode | None) -> tuple | None:
    """Everything a step computes from ``node``: op, attributes and
    initializers (not the node's name)."""
    if node is None:
        return None
    return (node.op_type,
            tuple((k, _frozen(v)) for k, v in sorted(node.attrs.items())),
            tuple((k, _frozen(v))
                  for k, v in sorted(node.initializers.items())))


# ----------------------------------------------------------------------
# compiled steps
# ----------------------------------------------------------------------

# Rows of the im2col matrix an integer Conv lowers per GEMM: whole
# images, about this many rows, so the float32 chunk stays in cache.
_CHUNK_ROWS = 4096


class _Step:
    """One fused operation of the plan; fills ``env[self.out]``.

    Code tensors are unsigned integer arrays with NCHW shape over NHWC
    memory (``(N, C)`` after a MatMul).
    """

    name: str
    src: str
    out: str
    op: str
    domain = "float"            # "integer": codes in, codes out
    reason: str | None = None   # why a Conv/MatMul stays float
    memoize = True              # a step memo may hold its output

    def run(self, env: dict, arena: _Arena, plan: "ExecutionPlan") -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        info = {"name": self.name, "op": self.op, "domain": self.domain}
        if self.reason is not None:
            info["reason"] = self.reason
        return info


class _ConvStep(_Step):
    """Float Conv (+ fused MultiThreshold → codes)."""

    op = "Conv"

    def __init__(self, node: IRNode, src: str, out: str, slots: tuple,
                 weight: np.ndarray, bias: np.ndarray | None,
                 threshold: _Threshold | None, reason: str):
        self.name = node.name
        self.src = src
        self.out = out
        self.stride = node.attrs.get("stride", 1)
        self.padding = node.attrs.get("padding", 0)
        self.slot, self.cols_slot, self.gemm_slot = slots
        out_ch, in_ch, kernel, _ = weight.shape
        self.kernel = kernel
        self.out_ch = out_ch
        self.patch = in_ch * kernel * kernel
        # Keep the transpose as a view: the reference executor computes
        # ``cols @ W.reshape(out_ch, -1).T`` and BLAS must see the same
        # operand layout for bit-identical results.
        self.weight_t = weight.reshape(out_ch, -1).T
        self.bias = bias
        self.threshold = threshold
        self.reason = reason

    def run(self, env, arena, plan):
        x = env[self.src]
        n = x.shape[0]
        out_h = conv_output_size(x.shape[2], self.kernel, self.stride,
                                 self.padding)
        out_w = conv_output_size(x.shape[3], self.kernel, self.stride,
                                 self.padding)
        rows = n * out_h * out_w
        cols = arena.view(self.cols_slot, (rows, self.patch))
        im2col_into(x, self.kernel, self.stride, self.padding, cols)
        thresholded = self.threshold is not None
        m = arena.view(self.gemm_slot if thresholded else self.slot,
                       (rows, self.out_ch))
        np.matmul(cols, self.weight_t, out=m)
        if self.bias is not None:
            m += self.bias
        if thresholded:
            code = arena.view(self.slot, m.shape, self.threshold.code_dtype)
            width = self.threshold.lv.shape[1]
            _threshold(m.reshape(-1, width), self.threshold,
                             code.reshape(-1, width), plan)
            m = code
        # NHWC -> NCHW as a (non-contiguous) view over the arena slot.
        env[self.out] = m.reshape(n, out_h, out_w, self.out_ch) \
                         .transpose(0, 3, 1, 2)


class _CertifiedConvStep(_ConvStep):
    """Float Conv + fused MultiThreshold in any summation order, its
    codes certified equal to the reference :class:`_ConvStep`'s.

    A few images at a time: the windows are copied channel-major
    (``(c, kh, kw)`` × pixels, inner loop along an output row), one GEMM
    reads that copy transposed and writes channels-last pre-activations
    of sign-flipped weights, and the bias is folded into the thresholds.
    Each value is then counted against every threshold moved out by a
    rounding band, once above and once below; the codes are accepted
    only when both counts agree everywhere, i.e. no value lies within
    the band of any threshold. Otherwise the batch reruns the reference
    step. The band is derived in the module docstring.
    """

    def __init__(self, node: IRNode, src: str, out: str, slots: tuple,
                 weight: np.ndarray, bias: np.ndarray | None,
                 threshold: _Threshold, reason: str, tile: int):
        slot, cols_slot, gemm_slot, self.pad_slot, self.aux_slot, \
            self.band_slot = slots
        super().__init__(node, src, out, (slot, cols_slot, gemm_slot),
                         weight, bias, threshold.tile(tile), reason)
        out_ch = self.out_ch
        signs = np.ones(out_ch) if threshold.signs is None \
            else threshold.signs
        # Sign flips are exact in any order: fold them into the rows.
        self.w_signed = weight.reshape(out_ch, -1) * signs[:, None]
        sb = np.zeros(out_ch) if bias is None else signs * bias
        with np.errstate(invalid="ignore"):
            self.v_shift = threshold.lv - sb          # (L, C)
        self.exact = ~np.isfinite(self.v_shift)       # no band: ±inf
        self.abs_row = np.abs(self.w_signed).sum(axis=1)
        self.abs_bias = np.abs(sb)
        info = np.finfo(weight.dtype)
        u, n = float(info.eps) / 2, self.patch + 2
        self.gamma = 2 * n * u / (1 - n * u)    # 2·γ_{K+2}
        self.rel = 2 * u
        self.floor = float(info.tiny)
        self.scale_limit = float(info.max) / 4
        self.tile = tile
        self.fallbacks = 0

    def _bands(self, x: np.ndarray, arena: _Arena):
        """``(below, above)``: the tiled thresholds moved out by the
        batch's band, level-major; ``None`` if ``x`` admits no finite
        band."""
        mx = np.maximum(x.max(), -x.min())  # NaN stays NaN
        if not np.isfinite(mx):
            return None
        scale = mx * self.abs_row + self.abs_bias
        if not scale.max() < self.scale_limit:
            return None
        v = self.v_shift
        with np.errstate(invalid="ignore", over="ignore"):
            band = (self.gamma * scale + self.rel * np.abs(v)) + self.floor
            below = np.nextafter(v - band, -np.inf)
            above = np.nextafter(v + band, np.inf)
        np.copyto(below, v, where=self.exact)
        np.copyto(above, v, where=self.exact)
        levels, out_ch = v.shape
        tiled = arena.view(self.band_slot, (2, levels, self.tile, out_ch))
        tiled[0] = below[:, None]
        tiled[1] = above[:, None]
        return tiled.reshape(2, levels, self.tile * out_ch)

    def run(self, env, arena, plan):
        if not self._run_certified(env, arena, plan):
            self.fallbacks += 1
            super().run(env, arena, plan)

    def _run_certified(self, env, arena, plan) -> bool:
        x = env[self.src]
        n, c, h, w = x.shape
        bands = self._bands(x, arena) if n else None
        if bands is None:
            return False
        below, above = bands
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            xp = arena.view(self.pad_slot, (n, c, h + 2 * p, w + 2 * p))
            xp.fill(0)
            xp[:, :, p:p + h, p:p + w] = x
            x = xp
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        sn, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x, shape=(c, k, k, n, out_h, out_w),
            strides=(sc, sh, sw, sn, sh * s, sw * s), writeable=False)
        per_image, out_ch = out_h * out_w, self.out_ch
        code = arena.view(self.slot, (n * per_image, out_ch),
                          self.threshold.code_dtype)
        width = below.shape[1]
        chunk = max(1, _CHUNK_ROWS // per_image)
        for i0 in range(0, n, chunk):
            i1 = min(n, i0 + chunk)
            rows = (i1 - i0) * per_image
            cols_t = arena.view(self.cols_slot, (self.patch, rows))
            np.copyto(cols_t.reshape(c, k, k, i1 - i0, out_h, out_w),
                      windows[:, :, :, i0:i1])
            acc = arena.view(self.gemm_slot, (rows, out_ch))
            np.matmul(cols_t.T, self.w_signed.T, out=acc)
            t0 = time.perf_counter()
            u = acc.reshape(-1, width)
            inner = code[i0 * per_image:i1 * per_image].reshape(-1, width)
            outer, crossed = arena.view(self.aux_slot, (2,) + u.shape,
                                        np.uint8)
            _count_levels(u, above, inner, crossed.view(np.bool_))
            _count_levels(u, below, outer, crossed.view(np.bool_))
            certified = np.array_equal(inner, outer)
            plan.threshold_seconds += time.perf_counter() - t0
            if not certified:
                return False
        env[self.out] = code.reshape(n, out_h, out_w, out_ch) \
                            .transpose(0, 3, 1, 2)
        return True


class _MatMulStep(_Step):
    """Float MatMul (+ fused MultiThreshold → codes)."""

    op = "MatMul"

    def __init__(self, node: IRNode, src: str, out: str, slots: tuple,
                 weight: np.ndarray, bias: np.ndarray | None,
                 threshold: _Threshold | None, reason: str):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot, self.gemm_slot = slots
        self.weight_t = weight.T
        self.bias = bias
        self.threshold = threshold
        self.reason = reason

    def run(self, env, arena, plan):
        x = env[self.src]
        thresholded = self.threshold is not None
        m = arena.view(self.gemm_slot if thresholded else self.slot,
                       (x.shape[0], self.weight_t.shape[1]))
        np.matmul(x, self.weight_t, out=m)
        if self.bias is not None:
            m += self.bias
        if thresholded:
            code = arena.view(self.slot, m.shape, self.threshold.code_dtype)
            _threshold(m, self.threshold, code, plan)
            m = code
        env[self.out] = m


class _IntConvStep(_Step):
    """Integer Conv + fused MultiThreshold, codes in and out: an MVTU.

    Lowers the NHWC codes to im2col rows in ``(kh, kw, c)`` order,
    straight into float32, a few images at a time; the float32 GEMM
    against ``q`` is an exact integer sum.
    """

    op = "Conv"
    domain = "integer"

    def __init__(self, node: IRNode, src: str, out: str, slots: tuple,
                 weight_shape: tuple, q: np.ndarray, threshold: _Threshold):
        self.name = node.name
        self.src = src
        self.out = out
        self.stride = node.attrs.get("stride", 1)
        self.padding = node.attrs.get("padding", 0)
        self.slot, self.pad_slot, self.cols_slot, self.acc_slot = slots
        self.kernel = weight_shape[2]
        # Weight columns (c, kh, kw) -> (kh, kw, c), the im2col order.
        q = q.reshape(weight_shape).transpose(0, 2, 3, 1)
        self.q_t = np.ascontiguousarray(q.reshape(len(q), -1).T)
        self.threshold = threshold

    def run(self, env, arena, plan):
        x = env[self.src].transpose(0, 2, 3, 1)
        n, h, w, c = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            xp = arena.view(self.pad_slot, (n, h + 2 * p, w + 2 * p, c),
                            x.dtype)
            xp.fill(0)
            xp[:, p:p + h, p:p + w] = x
            x = xp
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        sn, sh, sw, sc = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x, shape=(n, out_h, out_w, k, k, c),
            strides=(sn, sh * s, sw * s, sh, sw, sc), writeable=False)
        per_image = out_h * out_w
        patch, out_ch = self.q_t.shape
        code = arena.view(self.slot, (n * per_image, out_ch),
                          self.threshold.code_dtype)
        width = self.threshold.lv.shape[1]
        chunk = max(1, _CHUNK_ROWS // per_image)
        for i0 in range(0, n, chunk):
            i1 = min(n, i0 + chunk)
            rows = (i1 - i0) * per_image
            cols = arena.view(self.cols_slot, (rows, patch), np.float32)
            np.copyto(cols.reshape(i1 - i0, out_h, out_w, k, k, c),
                      windows[i0:i1])
            acc = arena.view(self.acc_slot, (rows, out_ch), np.float32)
            np.matmul(cols, self.q_t, out=acc)
            _threshold(acc.reshape(-1, width), self.threshold,
                       code[i0 * per_image:i1 * per_image]
                       .reshape(-1, width), plan)
        env[self.out] = code.reshape(n, out_h, out_w, out_ch) \
                            .transpose(0, 3, 1, 2)


class _IntMatMulStep(_Step):
    """Integer MatMul + fused MultiThreshold, codes in and out.

    4-D input codes come through a Flatten: they are read in
    ``(h, w, c)`` order, matching the permuted weight columns.
    """

    op = "MatMul"
    domain = "integer"

    def __init__(self, node: IRNode, src: str, out: str, slots: tuple,
                 hw: tuple | None, q: np.ndarray, threshold: _Threshold):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot, self.cols_slot, self.acc_slot = slots
        if hw is not None:  # weight columns (c, h, w) -> (h, w, c)
            q = q.reshape(len(q), -1, *hw).transpose(0, 2, 3, 1)
        self.q_t = np.ascontiguousarray(q.reshape(len(q), -1).T)
        self.threshold = threshold

    def run(self, env, arena, plan):
        x = env[self.src]
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)
        n = x.shape[0]
        cols = arena.view(self.cols_slot, x.shape, np.float32)
        np.copyto(cols, x)
        shape = (n, self.q_t.shape[1])
        acc = arena.view(self.acc_slot, shape, np.float32)
        np.matmul(cols.reshape(n, -1), self.q_t, out=acc)
        code = arena.view(self.slot, shape, self.threshold.code_dtype)
        _threshold(acc, self.threshold, code, plan)
        env[self.out] = code


class _ThresholdStep(_Step):
    """Standalone MultiThreshold: a float NCHW/NC activation to codes."""

    op = "MultiThreshold"

    def __init__(self, node: IRNode, src: str, out: str, slot: int,
                 threshold: _Threshold):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot = slot
        self.threshold = threshold

    def run(self, env, arena, plan):
        x = env[self.src]
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)
        code = arena.view(self.slot, x.shape, self.threshold.code_dtype)
        _threshold(x, self.threshold, code, plan)
        env[self.out] = code.transpose(0, 3, 1, 2) if code.ndim == 4 \
            else code


class _DecodeStep(_Step):
    """Codes to ``code × step`` in the plan's dtype, for a float reader.

    Writes C-contiguous NCHW, or ``(N, features)`` in NCHW flatten order
    when the reader sees a flattened tensor (``flat``): the operand the
    float oracle's GEMM reads.
    """

    op = "Decode"

    def __init__(self, src: str, out: str, slot: int, step: float,
                 flat: bool):
        self.name = out
        self.src = src
        self.out = out
        self.slot = slot
        self.step = step
        self.flat = flat

    def run(self, env, arena, plan):
        x = env[self.src]
        dst = arena.view(self.slot, x.shape)
        # Multiply in the plan's dtype: a code array times a Python float
        # would compute in float64 and round a float32 plan twice.
        np.multiply(x, self.step, out=dst, dtype=dst.dtype)
        env[self.out] = dst.reshape(x.shape[0], -1) if self.flat else dst


class _MaxPoolStep(_Step):
    """Max pooling as a running ``np.maximum`` over the k*k strided slices.

    Inference needs no argmax (the training ``maxpool2d_forward`` keeps
    one for its backward pass). The maximum is exact, so the values equal
    the reference executor's; over codes with ``step > 0`` the maximum
    code decodes to the maximum value. The output keeps the input's
    memory order: codes stay channels-last.
    """

    op = "MaxPool"

    def __init__(self, node: IRNode, src: str, out: str, domain: str):
        self.name = node.name
        self.src = src
        self.out = out
        self.kernel = node.attrs["kernel"]
        self.stride = node.attrs.get("stride") or self.kernel
        self.domain = domain

    def run(self, env, arena, plan):
        x = env[self.src]
        k, s = self.kernel, self.stride
        h_span = s * (conv_output_size(x.shape[2], k, s, 0) - 1) + 1
        w_span = s * (conv_output_size(x.shape[3], k, s, 0) - 1) + 1
        out = x[:, :, :h_span:s, :w_span:s].copy(order="K")
        for i in range(k):
            for j in range(k):
                if i or j:
                    np.maximum(out, x[:, :, i:i + h_span:s, j:j + w_span:s],
                               out=out)
        env[self.out] = out


class _FlattenStep(_Step):
    """Flatten of a float tensor into its own slot.

    Always copies: aliasing the (possibly arena-backed) input would keep
    the source slot live past what the compile-time liveness scan
    assumed.  The copy also linearizes the conv path's transposed NCHW
    view, so the downstream GEMM sees a contiguous operand exactly like
    the reference executor's ``reshape``.
    """

    op = "Flatten"

    def __init__(self, node: IRNode, src: str, out: str, slot: int):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot = slot

    def run(self, env, arena, plan):
        x = env[self.src]
        n = x.shape[0]
        dst = arena.view(self.slot, (n, x.size // n))
        np.copyto(dst.reshape(x.shape), x)
        env[self.out] = dst


class _CodeFlattenStep(_Step):
    """Flatten of codes: no work. The output aliases the input codes
    (its slot stays live through :meth:`_SlotAllocator.alias`); readers
    flatten them themselves, in ``(h, w, c)`` order (integer MatMul) or
    NCHW order (decode)."""

    op = "Flatten"
    domain = "integer"
    memoize = False  # an alias: holding it would hold its input twice

    def __init__(self, node: IRNode, src: str, out: str):
        self.name = node.name
        self.src = src
        self.out = out

    def run(self, env, arena, plan):
        env[self.out] = env[self.src]


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

class _SlotAllocator:
    """Compile-time register allocation over arena slots."""

    def __init__(self, reads: dict, pinned: set):
        self.reads = dict(reads)
        self.pinned = pinned
        self.owner: dict[str, int] = {}  # live tensor -> slot
        self.free: list[int] = []
        self.count = 0

    def _take(self) -> int:
        if self.free:
            return self.free.pop()
        self.count += 1
        return self.count - 1

    def acquire(self, tensor: str) -> int:
        slot = self._take()
        self.owner[tensor] = slot
        return slot

    def scratch(self, count: int) -> list[int]:
        """``count`` distinct slots alive only within one step."""
        slots = [self._take() for _ in range(count)]
        self.free.extend(slots)
        return slots

    def alias(self, tensor: str, base: str) -> None:
        """``tensor`` is a view of ``base``: their slot lives while
        either does."""
        if base in self.owner:
            self.owner[tensor] = self.owner[base]

    def consume(self, tensor: str) -> None:
        """Record one read; free the slot when its last tensor dies."""
        if tensor not in self.reads:
            return
        self.reads[tensor] -= 1
        if self.reads[tensor] <= 0 and tensor not in self.pinned:
            slot = self.owner.pop(tensor, None)
            if slot is not None and slot not in self.owner.values():
                self.free.append(slot)


def compile_graph(graph: IRGraph, dtype=np.float64, timer=None,
                  memo: StepMemo | None = None) -> "ExecutionPlan":
    """Compile a streamlined :class:`IRGraph` into a fused
    :class:`ExecutionPlan`.

    ``dtype`` selects the compute precision (``float64`` default keeps
    the plan bit-identical to the reference executors). ``timer`` is an
    optional :class:`repro.core.instrument.PhaseTimer`; compilation is
    recorded under ``engine_compile`` and attached to the plan for
    runtime phases. ``memo`` is an optional :class:`StepMemo`: the plan
    keys its steps and shares their outputs with every plan compiled
    against the same memo (see the module docstring).

    Raises ``ValueError`` if the graph still holds a ``BatchNorm`` node:
    :func:`repro.ir.passes.streamline` absorbs them into thresholds.
    """
    t0 = time.perf_counter()
    dtype = np.dtype(dtype)
    graph.validate()
    order = graph.topological_order()
    for node in order:
        if node.op_type == "BatchNorm":
            raise ValueError(
                f"cannot compile BatchNorm node {node.name!r}: run "
                "streamline() on the graph first")
    producer = {t: n for n in graph.nodes for t in n.outputs}

    # ``resolve`` maps original tensor names to the tensor that actually
    # carries the value in the compiled plan.
    resolve: dict[str, str] = {}

    def _r(t: str) -> str:
        while t in resolve:
            t = resolve[t]
        return t

    # DuplicateStreams emits no runtime work: both outputs alias the
    # input tensor.  Resolving them here keeps the liveness accounting
    # below honest (all branch reads charge the one underlying buffer).
    for node in order:
        if node.op_type == "DuplicateStreams":
            for out in node.outputs:
                resolve[out] = node.inputs[0]

    # Pass 1: fuse MultiThreshold into its producing Conv/MatMul.  A host
    # whose output is multiply consumed (e.g. feeds a DuplicateStreams)
    # or is itself a graph output keeps its pre-threshold value and the
    # MultiThreshold stays standalone.
    pre_pinned = {_r(t) for t in graph.output_names}
    # Resolved tensor -> names of the nodes reading it, kept current as
    # fusion resolves a MultiThreshold's output to its host's.
    readers: dict[str, set[str]] = {}
    for c in graph.nodes:
        for src in {_r(t) for t in c.inputs}:
            readers.setdefault(src, set()).add(c.name)
    fused: dict[str, IRNode] = {}  # host node name -> fused MT node
    removed: set[str] = set()      # fused MultiThreshold node names
    for node in order:
        if node.op_type != "MultiThreshold":
            continue
        src = _r(node.inputs[0])
        host = producer.get(src)
        if host is None or host.op_type not in ("Conv", "MatMul"):
            continue
        if host.name in fused:
            continue
        if len(readers.get(src, set()) - removed) != 1 or src in pre_pinned:
            continue
        fused[host.name] = node
        removed.add(node.name)
        resolve[node.outputs[0]] = src
        readers.setdefault(src, set()).update(
            readers.pop(node.outputs[0], ()))

    # Liveness: reads per resolved tensor (graph outputs pinned so their
    # slots survive until the end of the run).
    pinned = {_r(t) for t in graph.output_names}
    eff_nodes = [n for n in order if n.name not in removed
                 and n.op_type != "DuplicateStreams"]

    # Pass 2: value domains. Every MultiThreshold, fused or standalone,
    # writes codes; MaxPool (when decoding is monotone, ``step > 0``) and
    # Flatten pass them on. ``codes`` maps each code tensor to what it
    # holds.
    codes: dict[str, _Codes] = {}
    for node in eff_nodes:
        src, out = _r(node.inputs[0]), node.outputs[0]
        shape = graph.tensors[out].shape
        mt = node if node.op_type == "MultiThreshold" \
            else fused.get(node.name)
        if mt is not None:
            codes[out] = _Codes(float(mt.attrs["step"]),
                                mt.initializers["thresholds"].shape[1],
                                tuple(shape[1:]) if len(shape) == 3
                                else None)
        elif src in codes and node.op_type == "Flatten":
            codes[out] = codes[src]
        elif src in codes and node.op_type == "MaxPool" \
                and codes[src].step > 0:
            codes[out] = codes[src]._replace(hw=tuple(shape[1:]))

    # Pass 3: the operands of every Conv/MatMul; integer where the guard
    # proves the codes unchanged, else float with the reason.
    gemms: dict[str, list] = {}
    candidates: list[tuple] = []  # (node name, guard inputs)
    for node in eff_nodes:
        if node.op_type not in ("Conv", "MatMul"):
            continue
        src = _r(node.inputs[0])
        weight = node.initializers["weight"].astype(dtype, copy=False)
        bias = node.initializers.get("bias")
        if bias is not None:
            bias = bias.astype(dtype, copy=False)
        threshold = None
        if node.name in fused:
            threshold = _prepare_thresholds(fused[node.name], dtype)
        reason = None
        if src not in codes:
            reason = "first layer" if src == graph.input_name \
                else "float input"
        elif threshold is None:
            reason = "graph output" if node.outputs[0] in pinned \
                else "no fused threshold"
        else:
            candidates.append((node.name,
                               (weight, bias, threshold, codes[src])))
        gemms[node.name] = [weight, bias, threshold, None, reason]
    checked = _integer_operands([c for _, c in candidates], dtype)
    for (name, _), integer in zip(candidates, checked):
        if isinstance(integer, str):
            gemms[name][4] = integer  # the reason it stays float
        else:
            gemms[name][3] = integer

    def _reads_codes(node: IRNode) -> bool:
        if node.op_type in ("Conv", "MatMul"):
            return gemms[node.name][3] is not None
        return node.op_type in ("MaxPool", "Flatten") \
            and node.outputs[0] in codes

    # Liveness: reads per tensor the steps see. A float reader of a code
    # tensor reads its decoded twin, which one decode step produces
    # from the codes. Graph outputs are pinned so their slots survive
    # until the end of the run.
    reads: dict[str, int] = {}
    decoded: dict[str, str] = {}  # code tensor -> decoded twin

    def _read(t: str) -> None:
        reads[t] = reads.get(t, 0) + 1

    def _float_twin(t: str) -> str:
        if t not in decoded:
            decoded[t] = f"{t}:decoded"
            _read(t)
        return decoded[t]

    step_src: dict[str, str] = {}
    for node in eff_nodes:
        src = _r(node.inputs[0])
        if src in codes and not _reads_codes(node):
            src = _float_twin(src)
        step_src[node.name] = src
        _read(src)
    output_names = [_float_twin(t) if t in codes else t
                    for t in (_r(o) for o in graph.output_names)]
    alloc = _SlotAllocator(reads, set(output_names))

    steps: list[_Step] = []
    emitted: set[str] = set()
    # Content keys (step memo only): tensor -> the key of the step that
    # writes it, chained back to the graph input.
    keys: dict[str, tuple] = {graph.input_name: ("input",)}
    step_keys: list[tuple] = []

    def _key(step: _Step, shape: tuple, *parts) -> None:
        if memo is None:
            return
        key = (type(step).__name__, dtype.str, tuple(shape), parts,
               keys[step.src])
        keys[step.out] = key
        step_keys.append(key)

    def _decode(t: str) -> None:
        twin = decoded[t]
        if twin in emitted:
            return
        emitted.add(twin)
        shape = graph.tensors[t].shape
        steps.append(_DecodeStep(t, twin, alloc.acquire(twin),
                                 codes[t].step, len(shape) == 1))
        _key(steps[-1], shape, _frozen(codes[t].step))
        alloc.consume(t)

    for node in eff_nodes:
        src = step_src[node.name]
        out = node.outputs[0]
        code_src = _r(node.inputs[0])
        if src != code_src:
            _decode(code_src)
        if node.op_type in ("Conv", "MatMul"):
            weight, bias, threshold, integer, reason = gemms[node.name]
            # Acquire the output slot before the scratch slots: scratch
            # re-frees itself immediately, and no step may write into a
            # buffer it is reading.
            slot = alloc.acquire(out)
            conv = node.op_type == "Conv"
            tile = 1
            if conv and threshold is not None:
                _, out_h, out_w = graph.tensors[out].shape
                tile = _row_tile(out_h * out_w, *threshold.v.shape)
            if integer is not None and conv:
                q, int_threshold = integer
                steps.append(_IntConvStep(
                    node, src, out, (slot, *alloc.scratch(3)),
                    weight.shape, q, int_threshold.tile(tile)))
            elif integer is not None:
                steps.append(_IntMatMulStep(
                    node, src, out, (slot, *alloc.scratch(2)),
                    codes[code_src].hw, *integer))
            elif conv and threshold is not None and dtype == np.float64 \
                    and threshold.lv.shape[0] <= _SWEEP_MAX_LEVELS:
                steps.append(_CertifiedConvStep(
                    node, src, out, (slot, *alloc.scratch(5)),
                    np.ascontiguousarray(weight), bias, threshold, reason,
                    tile))
            else:
                # (out, im2col, GEMM before thresholding); unused: None
                scratch = alloc.scratch(conv + (threshold is not None))
                slots = (slot, *scratch, None)[:2 + conv]
                if threshold is not None:
                    threshold = threshold.tile(tile)
                step_cls = _ConvStep if conv else _MatMulStep
                steps.append(step_cls(node, src, out, slots,
                                      np.ascontiguousarray(weight), bias,
                                      threshold, reason))
        elif node.op_type == "MultiThreshold":
            steps.append(_ThresholdStep(
                node, src, out, alloc.acquire(out),
                _prepare_thresholds(node, dtype)))
        elif node.op_type == "MaxPool":
            steps.append(_MaxPoolStep(
                node, src, out, "integer" if out in codes else "float"))
        elif node.op_type == "Flatten":
            if out in codes:
                alloc.alias(out, src)
                steps.append(_CodeFlattenStep(node, src, out))
            else:
                steps.append(_FlattenStep(node, src, out,
                                          alloc.acquire(out)))
        else:  # pragma: no cover - _VALID_OPS guards this
            raise ValueError(f"cannot compile op {node.op_type!r}")
        _key(steps[-1], graph.tensors[out].shape, _node_key(node),
             _node_key(fused.get(node.name)))
        alloc.consume(src)
    for t in decoded:  # code graph outputs not decoded for a reader yet
        _decode(t)

    gemm_steps = [s for s in steps if s.op in ("Conv", "MatMul")]
    stats = {"nodes": len(eff_nodes), "fused_thresholds": len(fused),
             "integer_layers": sum(s.domain == "integer"
                                   for s in gemm_steps),
             "float_layers": {s.name: s.reason for s in gemm_steps
                              if s.domain == "float"},
             "certified_layers": [s.name for s in gemm_steps
                                  if isinstance(s, _CertifiedConvStep)],
             "steps": [s.describe() for s in steps]}

    plan = ExecutionPlan(
        graph_name=graph.name,
        input_name=graph.input_name,
        input_shape=tuple(graph.tensors[graph.input_name].shape),
        output_names=output_names,
        steps=steps,
        num_slots=alloc.count,
        dtype=dtype,
        num_exits=int(graph.metadata.get("num_exits", 0)),
        stats=stats,
        timer=timer,
        memo=memo,
        step_keys=step_keys if memo is not None else None,
    )
    if timer is not None:
        timer.add("engine_compile", time.perf_counter() - t0)
    return plan


class ExecutionPlan:
    """A compiled, reusable forward pass over an exported model.

    Duck-type compatible with :class:`repro.nn.BranchedModel` for the
    evaluation helpers: ``forward(x)`` returns one logits array per graph
    output (early exits first, backbone last), ``eval()`` is a no-op, and
    ``num_exits``/``param_dtype`` report the model facts the helpers use.
    """

    def __init__(self, graph_name, input_name, input_shape, output_names,
                 steps, num_slots, dtype, num_exits, stats, timer=None,
                 memo=None, step_keys=None):
        self.graph_name = graph_name
        self.input_name = input_name
        self.input_shape = input_shape
        self.output_names = output_names
        self.steps = steps
        self.dtype = dtype
        self._num_exits = num_exits
        self._stats = stats
        self.timer = timer
        self.memo = memo
        #: One content key per step when compiled with a memo, else None.
        self.step_keys = step_keys
        self.threshold_seconds = 0.0
        self._arena = _Arena(num_slots, dtype)
        self._step_phases = [f"engine_step/{s.name}" for s in steps]

    # -- model duck-typing -------------------------------------------------
    @property
    def num_exits(self) -> int:
        return self._num_exits

    @property
    def param_dtype(self):
        return self.dtype

    def eval(self) -> "ExecutionPlan":
        return self

    def train(self) -> "ExecutionPlan":  # pragma: no cover - defensive
        raise RuntimeError("compiled plans are inference-only")

    # -- execution ---------------------------------------------------------
    def run(self, x: np.ndarray) -> list[np.ndarray]:
        """Run one batch; returns one freshly-owned array per output."""
        timer = self.timer
        if timer is None:
            return self._run(x)
        with timer.phase("engine_forward"):
            outs = self._run(x)
            if self.threshold_seconds:
                timer.add("engine_threshold", self.threshold_seconds)
                self.threshold_seconds = 0.0
        return outs

    def _run(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=self.dtype)
        check_batch(x, self.input_shape)
        env = {self.input_name: x}
        arena = self._arena
        timer = self.timer
        todo, memo = range(len(self.steps)), None
        if self.memo is not None and self.memo.hold(x):
            todo, memo = self._recall(env), self.memo
        for i in todo:
            step = self.steps[i]
            t_step = time.perf_counter()
            step.run(env, arena, self)
            if timer is not None:
                timer.add(self._step_phases[i], time.perf_counter() - t_step)
            if memo is not None and step.memoize:
                memo.put(self.step_keys[i], env[step.out])
        # Outputs must survive the next run's buffer reuse.
        return [env[t].copy() for t in self.output_names]

    def _recall(self, env: dict) -> list[int]:
        """The steps to run on the memo's batch.

        Walks the steps backwards from the graph outputs: a needed step
        the memo holds is served into ``env``, and its input is not
        needed on its account; any other needed step runs.
        """
        memo = self.memo
        need = set(self.output_names)
        todo: list[int] = []
        hits, misses = memo.hits, memo.misses
        for i in range(len(self.steps) - 1, -1, -1):
            step = self.steps[i]
            if step.out not in need:
                continue
            held = memo.get(self.step_keys[i]) if step.memoize else None
            if held is not None:
                env[step.out] = held
            else:
                todo.append(i)
                need.add(step.src)
        if self.timer is not None:
            self.timer.add("engine_memo_hit", 0.0, memo.hits - hits)
            self.timer.add("engine_memo_miss", 0.0, memo.misses - misses)
        return todo[::-1]

    forward = run

    def run_many(self, xs) -> list[list[np.ndarray]]:
        """Run several inputs through one fused invocation.

        The serving-side analogue of micro-batched admission
        (:mod:`repro.edge.server`): the inputs are stacked along the
        batch axis, pushed through the plan once — amortizing the
        per-invocation step dispatch over the whole batch — and the
        outputs are split back per input (one freshly-owned array per
        output). Every step in a plan is batch-elementwise, so
        ``result[i]`` is exactly the ``xs[i]`` rows of the stacked run;
        it matches a standalone ``self.run(xs[i])`` to the last ulp
        (BLAS reduction order inside matmul may differ with the batch
        size, so bit-identity to per-input runs is not guaranteed).
        """
        xs = [np.asarray(x, dtype=self.dtype) for x in xs]
        if not xs:
            return []
        sizes = [x.shape[0] for x in xs]
        stacked = np.concatenate(xs, axis=0)
        outs = self.run(stacked)
        bounds = np.cumsum(sizes[:-1])
        per_output = [np.split(o, bounds, axis=0) for o in outs]
        return [[piece[i].copy() for piece in per_output]
                for i in range(len(xs))]

    def stats(self) -> dict:
        """Fusion/fold counts, arena footprint, and each step's domain.

        ``steps`` lists every step with its ``domain`` (``integer``:
        codes in, codes out; ``float``); ``float_layers`` maps each
        Conv/MatMul left on the float path to the reason (``first
        layer``, ``graph output``, ``off-grid weights``, ``accumulator
        bound``, ``guard band (channel c)``, ...). ``certified_layers``
        names the float Convs that compute their codes in any order under
        the rounding certificate (see the module docstring), and
        ``fallback_batches`` counts the batches, over all of them, that
        failed it and reran the reference step. With a step memo, only
        the steps that actually ran count here (and in the timer's
        ``engine_step/<name>`` phases); served steps do not.
        """
        fallbacks = sum(s.fallbacks for s in self.steps
                        if isinstance(s, _CertifiedConvStep))
        return dict(self._stats, num_steps=len(self.steps),
                    fallback_batches=fallbacks,
                    arena_bytes=self._arena.nbytes(),
                    dtype=str(np.dtype(self.dtype)))
