"""Compiled execution engine for the IR: fused, buffer-reusing plans.

:func:`compile_graph` turns a (preferably streamlined) :class:`IRGraph`
into an :class:`ExecutionPlan` — a flat list of pre-bound steps that runs
the same network function as :meth:`IRGraph.execute` but without the
per-node interpretation overhead:

* **BatchNorm folding** — inference-time affine nodes are folded into the
  weight/bias initializers of the producing ``Conv``/``MatMul`` (mirrors
  FINN's streamlining when the graph was exported without it).
* **Conv/MatMul → MultiThreshold fusion** — thresholding is applied to
  the post-GEMM ``(rows, channels)`` matrix *before* the NHWC→NCHW
  transpose, so the quantization step touches a contiguous matrix.
* **Byte-wide level counting** — the reference ``MultiThreshold``
  executor materializes an ``(N, C, H, W, levels)`` broadcast temp; the
  plan compares against pre-sorted per-channel thresholds instead. Up
  to ``_SWEEP_MAX_LEVELS`` levels it sweeps the levels, counting crossed
  ones in a ``uint8`` array (an arena scratch slot) and multiplying by
  ``step`` once, in the plan's dtype; more levels go through
  ``np.searchsorted`` (O(log L)). No rank-5 temp, identical codes.
* **Pooling without argmax** — MaxPool is a running ``np.maximum`` over
  the k*k strided slices of its input, which may be a fused Conv's
  transposed NHWC view; the training kernel's argmax indices (kept for
  backward) are never computed.
* **Preallocated activation buffers** — a compile-time liveness scan
  assigns each intermediate tensor (and each threshold-count scratch) a
  reusable arena slot; repeated :meth:`ExecutionPlan.run` calls allocate
  (almost) nothing.

Numerical contract: on streamlined graphs (no ``BatchNorm`` nodes) the
plan is **bit-identical** to the reference executors in float64 — GEMMs
hit the same BLAS path and thresholding performs the same float
comparisons; a maximum is exact whatever the order of the window
slices. Folding a BatchNorm into a Conv/MatMul changes rounding, so
BN-bearing graphs agree only to floating-point tolerance. Threshold
inputs containing NaN are undefined (the oracle yields code 0, the plan
yields ``levels``); exported models never produce NaN activations.
"""

from __future__ import annotations

import time

import numpy as np

from .graph import IRGraph, IRNode

__all__ = ["compile_graph", "ExecutionPlan"]


# ----------------------------------------------------------------------
# threshold kernels (searchsorted-based)
# ----------------------------------------------------------------------

def _prepare_thresholds(node: IRNode, dtype) -> tuple[np.ndarray, np.ndarray, float]:
    """Pre-sort per-channel thresholds in the sign-transformed domain.

    The reference semantics count ``#(sign*x > sign*t_k)`` per channel.
    With ``v = sign * t`` sorted ascending and ``u = sign * x``, that
    count equals ``np.searchsorted(v, u, side="left")`` (the number of
    ``v_k`` strictly below ``u``) for any threshold order.
    """
    thresholds = node.initializers["thresholds"].astype(dtype, copy=False)
    signs = node.initializers["signs"].astype(dtype, copy=False)
    v = np.sort(signs[:, None] * thresholds, axis=1)
    v = np.ascontiguousarray(v)
    return v, signs, float(node.attrs["step"])


# Below this many levels a vectorized level sweep beats per-channel
# ``searchsorted`` (whose per-element constant dwarfs the O(log L) win
# for the 2–4 bit activations CNV actually uses). Both paths produce
# the same integer codes; the equivalence tests cover each.
_SWEEP_MAX_LEVELS = 16


def _threshold_matrix(m: np.ndarray, v: np.ndarray, signs: np.ndarray,
                      step, scratch: np.ndarray | None = None) -> None:
    """In-place thresholding of a channels-last ``(rows, C)`` matrix.

    ``scratch`` is an optional ``uint8`` buffer of ``m``'s shape for the
    level sweep's counts.
    """
    c_count, levels = v.shape
    if levels <= _SWEEP_MAX_LEVELS:
        u = m if (signs == 1.0).all() else m * signs
        code = scratch if scratch is not None \
            else np.empty(m.shape, dtype=np.uint8)
        np.greater(u, v[:, 0], out=code)
        for k in range(1, levels):
            code += u > v[:, k]
        # Multiply in the plan's dtype: a uint8 array times a Python
        # float would compute in float64 and round a float32 plan twice.
        np.multiply(code, step, out=m, dtype=m.dtype)
        return
    for c in range(c_count):
        col = m[:, c]
        u = col if signs[c] == 1.0 else signs[c] * col
        m[:, c] = np.searchsorted(v[c], u, side="left")
    m *= step


def _threshold_tensor(x: np.ndarray, v: np.ndarray, signs: np.ndarray,
                      step, out: np.ndarray,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Threshold an NCHW or NC tensor channel-by-channel into ``out``.

    ``scratch`` is an optional ``uint8`` buffer of ``x``'s shape for the
    level sweep's counts.
    """
    c_count, levels = v.shape
    cshape = (1, c_count, 1, 1) if x.ndim == 4 else (c_count,)
    if levels <= _SWEEP_MAX_LEVELS:
        u = x if (signs == 1.0).all() else x * signs.reshape(cshape)
        code = scratch if scratch is not None \
            else np.empty(x.shape, dtype=np.uint8)
        np.greater(u, v[:, 0].reshape(cshape), out=code)
        for k in range(1, levels):
            code += u > v[:, k].reshape(cshape)
        np.multiply(code, step, out=out, dtype=out.dtype)
        return out
    for c in range(c_count):
        xc = x[:, c]
        u = xc if signs[c] == 1.0 else signs[c] * xc
        out[:, c] = np.searchsorted(v[c], u, side="left")
    out *= step
    return out


# ----------------------------------------------------------------------
# im2col into a preallocated buffer
# ----------------------------------------------------------------------

def _im2col_into(x: np.ndarray, kernel: int, stride: int, padding: int,
                 out_h: int, out_w: int, cols: np.ndarray) -> np.ndarray:
    """:func:`repro.nn.functional.im2col` writing into ``cols``."""
    n, c = x.shape[0], x.shape[1]
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)), mode="constant")
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out6 = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    np.copyto(out6, windows.transpose(0, 2, 3, 1, 4, 5))
    return cols


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
        ``dtype`` is given (the threshold sweep counts in ``uint8``)."""
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
# compiled steps
# ----------------------------------------------------------------------

class _Step:
    """One fused operation of the plan; fills ``env[self.out]``."""

    out: str

    def run(self, env: dict, arena: _Arena, plan: "ExecutionPlan") -> None:
        raise NotImplementedError


class _ConvStep(_Step):
    """Conv (+ folded BatchNorm) (+ fused MultiThreshold)."""

    def __init__(self, node: IRNode, src: str, out: str, dtype,
                 slot: int, cols_slot: int,
                 weight: np.ndarray, bias: np.ndarray | None,
                 threshold=None):
        self.name = node.name
        self.src = src
        self.out = out
        self.stride = node.attrs.get("stride", 1)
        self.padding = node.attrs.get("padding", 0)
        self.slot = slot
        self.cols_slot = cols_slot
        out_ch, in_ch, kernel, _ = weight.shape
        self.kernel = kernel
        self.out_ch = out_ch
        self.patch = in_ch * kernel * kernel
        # Keep the transpose as a view: the reference executor computes
        # ``cols @ W.reshape(out_ch, -1).T`` and BLAS must see the same
        # operand layout for bit-identical results.
        self.weight_t = weight.reshape(out_ch, -1).T
        self.bias = bias
        self.threshold = threshold  # (v_sorted, signs, step) | None

    def run(self, env, arena, plan):
        x = env[self.src]
        n = x.shape[0]
        from ..nn.functional import conv_output_size
        out_h = conv_output_size(x.shape[2], self.kernel, self.stride,
                                 self.padding)
        out_w = conv_output_size(x.shape[3], self.kernel, self.stride,
                                 self.padding)
        rows = n * out_h * out_w
        cols = arena.view(self.cols_slot, (rows, self.patch))
        _im2col_into(x, self.kernel, self.stride, self.padding,
                     out_h, out_w, cols)
        m = arena.view(self.slot, (rows, self.out_ch))
        np.matmul(cols, self.weight_t, out=m)
        if self.bias is not None:
            m += self.bias
        if self.threshold is not None:
            t0 = time.perf_counter()
            # The im2col matrix is dead once the GEMM has run; its slot
            # doubles as the threshold-code scratch.
            _threshold_matrix(m, *self.threshold,
                              scratch=arena.view(self.cols_slot, m.shape,
                                                 np.uint8))
            plan.threshold_seconds += time.perf_counter() - t0
        # NHWC -> NCHW as a (non-contiguous) view over the arena slot.
        env[self.out] = m.reshape(n, out_h, out_w, self.out_ch) \
                         .transpose(0, 3, 1, 2)


class _MatMulStep(_Step):
    """MatMul (+ folded BatchNorm) (+ fused MultiThreshold)."""

    def __init__(self, node: IRNode, src: str, out: str, slot: int,
                 scratch_slot: int | None,
                 weight: np.ndarray, bias: np.ndarray | None,
                 threshold=None):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot = slot
        self.scratch_slot = scratch_slot
        self.weight_t = weight.T
        self.bias = bias
        self.threshold = threshold

    def run(self, env, arena, plan):
        x = env[self.src]
        m = arena.view(self.slot, (x.shape[0], self.weight_t.shape[1]))
        np.matmul(x, self.weight_t, out=m)
        if self.bias is not None:
            m += self.bias
        if self.threshold is not None:
            t0 = time.perf_counter()
            scratch = None if self.scratch_slot is None \
                else arena.view(self.scratch_slot, m.shape, np.uint8)
            _threshold_matrix(m, *self.threshold, scratch=scratch)
            plan.threshold_seconds += time.perf_counter() - t0
        env[self.out] = m


class _ThresholdStep(_Step):
    """Standalone MultiThreshold over an NCHW/NC activation."""

    def __init__(self, node: IRNode, src: str, out: str, slot: int,
                 scratch_slot: int, threshold):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot = slot
        self.scratch_slot = scratch_slot
        self.threshold = threshold

    def run(self, env, arena, plan):
        x = env[self.src]
        dst = arena.view(self.slot, x.shape)
        t0 = time.perf_counter()
        _threshold_tensor(x, *self.threshold, out=dst,
                          scratch=arena.view(self.scratch_slot, x.shape,
                                             np.uint8))
        plan.threshold_seconds += time.perf_counter() - t0
        env[self.out] = dst


class _BatchNormStep(_Step):
    """Unfoldable BatchNorm, executed with the reference arithmetic."""

    def __init__(self, node: IRNode, src: str, out: str, slot: int, dtype,
                 keep=None):
        self.name = node.name
        self.src = src
        self.out = out
        self.slot = slot
        self.scale = node.initializers["scale"].astype(dtype, copy=False)
        self.shift = node.initializers["shift"].astype(dtype, copy=False)
        if keep is not None:  # sparse mode: channel-compacted input
            self.scale = self.scale[keep]
            self.shift = self.shift[keep]

    def run(self, env, arena, plan):
        x = env[self.src]
        dst = arena.view(self.slot, x.shape)
        if x.ndim == 4:
            np.multiply(x, self.scale.reshape(1, -1, 1, 1), out=dst)
            dst += self.shift.reshape(1, -1, 1, 1)
        else:
            np.multiply(x, self.scale, out=dst)
            dst += self.shift
        env[self.out] = dst


class _MaxPoolStep(_Step):
    """Max pooling as a running ``np.maximum`` over the k*k strided slices.

    Inference needs no argmax (the training ``maxpool2d_forward`` keeps
    one for its backward pass). The maximum is exact, so the values equal
    the reference executor's. The output keeps the input's memory order:
    over a fused Conv's transposed NHWC view it stays channels-last.
    """

    def __init__(self, node: IRNode, src: str, out: str):
        self.name = node.name
        self.src = src
        self.out = out
        self.kernel = node.attrs["kernel"]
        self.stride = node.attrs.get("stride") or self.kernel

    def run(self, env, arena, plan):
        from ..nn.functional import conv_output_size
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
    """Flatten into its own slot.

    Always copies: aliasing the (possibly arena-backed) input would keep
    the source slot live past what the compile-time liveness scan
    assumed.  The copy also linearizes the conv path's transposed NCHW
    view, so the downstream GEMM sees a contiguous operand exactly like
    the reference executor's ``reshape``.
    """

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


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

def _compact(node: IRNode, weight: np.ndarray, bias: np.ndarray | None,
             threshold, in_keep: np.ndarray | None, out_keep: dict):
    """Apply sparse-mode channel compaction to one GEMM's operands.

    ``in_keep`` slices the K dimension (input columns: Conv in-channels,
    MatMul columns); ``out_keep[node.name]`` slices the N dimension (own
    output rows, plus bias and fused-threshold rows).
    """
    if in_keep is not None:
        weight = weight[:, in_keep]
    keep = out_keep.get(node.name)
    if keep is not None:
        weight = weight[keep]
        if bias is not None:
            bias = bias[keep]
        if threshold is not None:
            v, signs, step = threshold
            threshold = (np.ascontiguousarray(v[keep]), signs[keep], step)
    return weight, bias, threshold


def _fold_batchnorm(node: IRNode, weight: np.ndarray,
                    bias: np.ndarray | None, dtype):
    """Fold a BatchNorm affine into Conv/MatMul weight+bias."""
    scale = node.initializers["scale"].astype(dtype, copy=False)
    shift = node.initializers["shift"].astype(dtype, copy=False)
    if weight.ndim == 4:
        weight = weight * scale.reshape(-1, 1, 1, 1)
    else:
        weight = weight * scale.reshape(-1, 1)
    bias = shift if bias is None else bias * scale + shift
    return weight, bias


class _SlotAllocator:
    """Compile-time register allocation over arena slots."""

    def __init__(self, reads: dict, pinned: set):
        self.reads = dict(reads)
        self.pinned = pinned
        self.owner: dict[str, int] = {}  # live tensor -> slot
        self.free: list[int] = []
        self.count = 0

    def acquire(self, tensor: str) -> int:
        slot = self.free.pop() if self.free else self.count
        if slot == self.count:
            self.count += 1
        self.owner[tensor] = slot
        return slot

    def scratch(self) -> int:
        """A slot alive only within one step."""
        slot = self.free.pop() if self.free else self.count
        if slot == self.count:
            self.count += 1
        self.free.append(slot)
        return slot

    def consume(self, tensor: str) -> None:
        """Record one read; free the slot when the tensor dies."""
        if tensor not in self.reads:
            return
        self.reads[tensor] -= 1
        if self.reads[tensor] <= 0 and tensor not in self.pinned:
            slot = self.owner.pop(tensor, None)
            if slot is not None:
                self.free.append(slot)


def compile_graph(graph: IRGraph, dtype=np.float64,
                  timer=None, sparse: bool = False) -> "ExecutionPlan":
    """Compile an :class:`IRGraph` into a fused :class:`ExecutionPlan`.

    ``dtype`` selects the compute precision (``float64`` default keeps
    the plan bit-identical to the reference executors on streamlined
    graphs). ``timer`` is an optional
    :class:`repro.core.instrument.PhaseTimer`; compilation is recorded
    under ``engine_compile`` and attached to the plan for runtime phases.

    ``sparse=True`` enables compile-time **dead-channel elimination** for
    channel-pruned (masked) graphs: an output channel of a Conv/MatMul is
    removed from the fused GEMM when (a) its weight row and bias are
    exactly zero and (b) it provably influences nothing downstream —
    every consumer either reads it through all-zero weight columns or
    passes it through per-channel ops (MaxPool/MultiThreshold/BatchNorm/
    Flatten) into consumers that do, and it never reaches a graph output.
    Both the GEMM's N dimension (its own rows) and every downstream
    GEMM's K dimension (input columns) shrink; all compaction happens
    here at compile time — the runtime steps are the ordinary dense
    steps over smaller matrices, with no gather/scatter.

    Numerical contract of sparse mode: the sparse plan of a masked graph
    is **bit-identical** to the dense plan (and the reference executors)
    of the same graph with the dropped channels explicitly sliced out via
    :func:`repro.ir.passes.slice_channels` — both execute literally the
    same BLAS calls on the same operands. Against the dense plan of the
    *unsliced* masked graph it is numerically equivalent but not bitwise:
    shrinking the K dimension changes BLAS reduction order, perturbing
    the surviving terms' rounding at the ulp level.
    """
    t0 = time.perf_counter()
    dtype = np.dtype(dtype)
    graph.validate()
    order = graph.topological_order()
    producer = {t: n for n in graph.nodes for t in n.outputs}

    # Pass 1: fold BatchNorm nodes whose producer is a single-consumer
    # Conv/MatMul.  ``resolve`` maps original tensor names to the tensor
    # that actually carries the value in the compiled plan.
    resolve: dict[str, str] = {}

    def _r(t: str) -> str:
        while t in resolve:
            t = resolve[t]
        return t

    folded: dict[str, IRNode] = {}  # host node name -> folded BN node
    removed: set[str] = set()       # node names absorbed into a host
    for node in order:
        if node.op_type != "BatchNorm":
            continue
        host = producer.get(node.inputs[0])
        if host is None or host.op_type not in ("Conv", "MatMul"):
            continue
        if host.name in folded:
            continue
        out = host.outputs[0]
        if len(graph.consumers(out)) != 1 or out in graph.output_names:
            continue
        folded[host.name] = node
        removed.add(node.name)
        resolve[node.outputs[0]] = out

    # DuplicateStreams emits no runtime work: both outputs alias the
    # input tensor.  Resolving them here keeps the liveness accounting
    # below honest (all branch reads charge the one underlying buffer).
    for node in order:
        if node.op_type == "DuplicateStreams":
            for out in node.outputs:
                resolve[out] = node.inputs[0]

    # Pass 2: fuse MultiThreshold into its producing Conv/MatMul.  The
    # effective producer is found through ``resolve`` so conv->BN->MT
    # chains fuse fully.  A host whose output is multiply consumed (e.g.
    # feeds a DuplicateStreams) or is itself a graph output keeps its
    # pre-threshold value and the MultiThreshold stays standalone.
    pre_pinned = {_r(t) for t in graph.output_names}
    fused: dict[str, IRNode] = {}  # host node name -> fused MT node
    for node in order:
        if node.op_type != "MultiThreshold" or node.name in removed:
            continue
        src = _r(node.inputs[0])
        host = producer.get(src)
        if host is None or host.op_type not in ("Conv", "MatMul"):
            continue
        if host.name in fused or host.name in removed:
            continue
        live_consumers = [c for c in graph.nodes
                          if c.name not in removed
                          and any(_r(t) == src for t in c.inputs)]
        if len(live_consumers) != 1 or src in pre_pinned:
            continue
        fused[host.name] = node
        removed.add(node.name)
        resolve[node.outputs[0]] = src

    # Liveness: reads per resolved tensor (graph outputs pinned so their
    # slots survive until the end of the run).
    pinned = {_r(t) for t in graph.output_names}

    # Pass 3 (sparse mode): dead-channel elimination. ``out_keep`` maps a
    # Conv/MatMul node name to the output channels it keeps; ``in_keep_of``
    # maps a resolved tensor to the original channel (or flat feature)
    # indices still flowing through it, used to slice consumers.
    out_keep: dict[str, np.ndarray] = {}
    in_keep_of: dict[str, np.ndarray] = {}
    dropped_channels = 0
    if sparse:
        eff_nodes = [n for n in order if n.name not in removed
                     and n.op_type != "DuplicateStreams"]
        consumers_eff: dict[str, list[IRNode]] = {}
        for n in eff_nodes:
            for t in n.inputs:
                consumers_eff.setdefault(_r(t), []).append(n)

        drop_cache: dict[str, np.ndarray] = {}

        def _droppable(tensor: str) -> np.ndarray:
            """Bool per channel of ``tensor``: True iff zeroing it out
            cannot change any graph output (all consumer weight columns
            are zero, transitively through per-channel ops)."""
            if tensor in drop_cache:
                return drop_cache[tensor]
            n_ch = graph.tensors[tensor].shape[0]
            mask = np.ones(n_ch, dtype=bool)
            if tensor in pinned:
                mask[:] = False
            else:
                consumers = consumers_eff.get(tensor, [])
                if not consumers:
                    mask[:] = False  # dangling: leave untouched
                for c in consumers:
                    if c.op_type == "Conv":
                        w = c.initializers["weight"]
                        if w.shape[1] != n_ch:
                            mask[:] = False
                        else:
                            mask &= ~(w != 0).any(axis=(0, 2, 3))
                    elif c.op_type == "MatMul":
                        w = c.initializers["weight"]
                        if w.shape[1] != n_ch:
                            mask[:] = False
                        else:
                            mask &= ~(w != 0).any(axis=0)
                    elif c.op_type in ("MaxPool", "MultiThreshold",
                                       "BatchNorm"):
                        mask &= _droppable(_r(c.outputs[0]))
                    elif c.op_type == "Flatten":
                        flat = _droppable(_r(c.outputs[0]))
                        shape = graph.tensors[c.inputs[0]].shape
                        hw = int(np.prod(shape[1:])) if len(shape) > 1 else 1
                        mask &= flat.reshape(n_ch, hw).all(axis=1)
                    else:
                        mask[:] = False
            drop_cache[tensor] = mask
            return mask

        for node in eff_nodes:
            if node.op_type not in ("Conv", "MatMul"):
                continue
            w = node.initializers["weight"]
            rows = w.shape[0]
            row_zero = ~(w.reshape(rows, -1) != 0).any(axis=1)
            bias = node.initializers.get("bias")
            if bias is not None:
                row_zero &= bias == 0
            if node.name in folded:
                # Folding a BatchNorm adds its shift to the bias; a dead
                # row must stay dead after folding.
                row_zero &= folded[node.name].initializers["shift"] == 0
            if not row_zero.any():
                continue
            dead = row_zero & _droppable(_r(node.outputs[0]))
            keep_idx = np.flatnonzero(~dead)
            if 0 < keep_idx.size < rows:
                out_keep[node.name] = keep_idx
                in_keep_of[_r(node.outputs[0])] = keep_idx
                dropped_channels += rows - keep_idx.size

        # Propagate kept-channel sets forward through per-channel ops so
        # downstream GEMMs and threshold/BN params can be sliced.
        for node in eff_nodes:
            src_keep = in_keep_of.get(_r(node.inputs[0])) if node.inputs \
                else None
            if src_keep is None:
                continue
            if node.op_type in ("MaxPool", "MultiThreshold", "BatchNorm"):
                in_keep_of[_r(node.outputs[0])] = src_keep
            elif node.op_type == "Flatten":
                shape = graph.tensors[node.inputs[0]].shape
                hw = int(np.prod(shape[1:])) if len(shape) > 1 else 1
                in_keep_of[_r(node.outputs[0])] = \
                    (src_keep[:, None] * hw + np.arange(hw)).ravel()

    reads: dict[str, int] = {}
    for node in order:
        if node.name in removed or node.op_type == "DuplicateStreams":
            continue
        for t in node.inputs:
            rt = _r(t)
            reads[rt] = reads.get(rt, 0) + 1
    alloc = _SlotAllocator(reads, pinned)

    steps: list[_Step] = []
    stats = {"nodes": 0, "folded_batchnorm": len(folded),
             "fused_thresholds": len(fused), "sparse": bool(sparse)}
    if sparse:
        stats["compacted_nodes"] = len(out_keep)
        stats["dropped_channels"] = dropped_channels
        stats["channel_keep"] = {name: [int(i) for i in idx]
                                 for name, idx in out_keep.items()}
    aliases: list[tuple[str, str]] = []  # DuplicateStreams rewires
    for node in order:
        if node.name in removed:
            continue
        if node.op_type == "DuplicateStreams":
            continue
        stats["nodes"] += 1
        src = _r(node.inputs[0])
        out = node.outputs[0]
        in_k = in_keep_of.get(src)
        if node.op_type == "Conv":
            weight = node.initializers["weight"].astype(dtype, copy=False)
            bias = node.initializers.get("bias")
            if bias is not None:
                bias = bias.astype(dtype, copy=False)
            if node.name in folded:
                weight, bias = _fold_batchnorm(folded[node.name], weight,
                                               bias, dtype)
            threshold = None
            if node.name in fused:
                threshold = _prepare_thresholds(fused[node.name], dtype)
            weight, bias, threshold = _compact(node, weight, bias, threshold,
                                               in_k, out_keep)
            # Acquire the output slot before the scratch slot: scratch
            # re-frees itself immediately, and the GEMM must never write
            # into the im2col matrix it is reading.
            slot = alloc.acquire(out)
            cols_slot = alloc.scratch()
            steps.append(_ConvStep(node, src, out, dtype, slot, cols_slot,
                                   np.ascontiguousarray(weight), bias,
                                   threshold))
        elif node.op_type == "MatMul":
            weight = node.initializers["weight"].astype(dtype, copy=False)
            bias = node.initializers.get("bias")
            if bias is not None:
                bias = bias.astype(dtype, copy=False)
            if node.name in folded:
                weight, bias = _fold_batchnorm(folded[node.name], weight,
                                               bias, dtype)
            threshold = None
            scratch_slot = None
            if node.name in fused:
                threshold = _prepare_thresholds(fused[node.name], dtype)
            weight, bias, threshold = _compact(node, weight, bias, threshold,
                                               in_k, out_keep)
            slot = alloc.acquire(out)
            if threshold is not None:
                scratch_slot = alloc.scratch()
            steps.append(_MatMulStep(node, src, out, slot, scratch_slot,
                                     np.ascontiguousarray(weight), bias,
                                     threshold))
        elif node.op_type == "MultiThreshold":
            slot = alloc.acquire(out)
            scratch_slot = alloc.scratch()
            threshold = _prepare_thresholds(node, dtype)
            if in_k is not None:
                v, signs, step = threshold
                threshold = (np.ascontiguousarray(v[in_k]), signs[in_k], step)
            steps.append(_ThresholdStep(node, src, out, slot, scratch_slot,
                                        threshold))
        elif node.op_type == "BatchNorm":
            slot = alloc.acquire(out)
            steps.append(_BatchNormStep(node, src, out, slot, dtype,
                                        keep=in_k))
        elif node.op_type == "MaxPool":
            steps.append(_MaxPoolStep(node, src, out))
        elif node.op_type == "Flatten":
            slot = alloc.acquire(out)
            steps.append(_FlattenStep(node, src, out, slot))
        else:  # pragma: no cover - _VALID_OPS guards this
            raise ValueError(f"cannot compile op {node.op_type!r}")
        alloc.consume(src)

    plan = ExecutionPlan(
        graph_name=graph.name,
        input_name=graph.input_name,
        output_names=[_r(t) for t in graph.output_names],
        steps=steps,
        num_slots=alloc.count,
        dtype=dtype,
        num_exits=int(graph.metadata.get("num_exits", 0)),
        stats=stats,
        timer=timer,
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

    def __init__(self, graph_name, input_name, output_names, steps,
                 num_slots, dtype, num_exits, stats, timer=None):
        self.graph_name = graph_name
        self.input_name = input_name
        self.output_names = output_names
        self.steps = steps
        self.dtype = dtype
        self._num_exits = num_exits
        self._stats = stats
        self.timer = timer
        self.threshold_seconds = 0.0
        self._arena = _Arena(num_slots, dtype)

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
        t0 = time.perf_counter()
        x = np.asarray(x, dtype=self.dtype)
        env = {self.input_name: x}
        arena = self._arena
        for step in self.steps:
            step.run(env, arena, self)
        # Outputs must survive the next run's buffer reuse.
        outs = [env[t].copy() for t in self.output_names]
        if self.timer is not None:
            elapsed = time.perf_counter() - t0
            self.timer.add("engine_forward", elapsed)
            if self.threshold_seconds:
                self.timer.add("engine_threshold", self.threshold_seconds)
                self.threshold_seconds = 0.0
        return outs

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
        """Fusion/fold counts and arena footprint of the compiled plan."""
        return dict(self._stats, num_steps=len(self.steps),
                    arena_bytes=self._arena.nbytes(),
                    dtype=str(np.dtype(self.dtype)))
