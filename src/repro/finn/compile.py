"""IR -> dataflow accelerator compilation (the FINN hardware mapping).

Consumes a *streamlined* IR graph (:func:`repro.ir.streamline`) and a
:class:`~repro.finn.folding.FoldingConfig` and produces a
:class:`DataflowAccelerator`: one pipeline stage per mappable node —
CONV becomes SWU + MVTU, FC becomes MVTU, MultiThreshold nodes directly
after a matrix op fold into that MVTU (the "T" in MVTU), MaxPool becomes
a pooling stage, and DuplicateStreams becomes the paper's branch module.

The resulting accelerator knows, per exit, which stages an input must
traverse — the basis of the latency/throughput/energy models.

A compiled design is fixed: nothing mutates an accelerator after
:func:`compile_accelerator` returns. Each stage's ``cycles()`` and
``resources()`` are therefore computed once, on first use, together
with the total resources and the per-exit path cycles; the performance
and power models read those cached costs for every confidence-threshold
entry instead of re-estimating every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..ir.graph import IRGraph, IRNode
from ..ir.passes import weight_density
from .folding import FoldingConfig, largest_divisor_leq as _largest_divisor_leq
from .hls import (
    DuplicateStreamsUnit,
    HLSModule,
    MVTU,
    PoolUnit,
    SlidingWindowUnit,
    ThresholdUnit,
    ZERO_SKIP_OVERHEAD,
)
from .resources import ResourceEstimate
from ..core.errors import PermanentError

__all__ = ["DataflowAccelerator", "compile_accelerator", "CompileError"]


class CompileError(PermanentError, ValueError):
    """Raised when a graph cannot be mapped to a dataflow accelerator.

    A :class:`~repro.core.errors.PermanentError`: the same graph fails
    the same way on every attempt, so supervision quarantines the design
    point instead of retrying it.
    """


def _bare_name(node_name: str) -> str:
    """IR node names carry a scope prefix (``seg0/b0_conv0``)."""
    return node_name.split("/")[-1]


@dataclass
class DataflowAccelerator:
    """A compiled dataflow design: stages, connectivity, and exit paths."""

    name: str
    clock_mhz: float
    modules: list = field(default_factory=list)
    # tensor name -> producing module index (for path reconstruction)
    _tensor_producer: dict = field(default_factory=dict)
    # per exit: ordered module indices an input traverses to that exit
    exit_paths: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def num_exits(self) -> int:
        return len(self.exit_paths)

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    def module_by_name(self, name: str) -> HLSModule:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(name)

    # -- stage costs (computed once; the design is fixed after compile) --
    @cached_property
    def stage_cycles(self) -> tuple:
        """Busy cycles per frame of every stage, in module order."""
        return tuple(m.cycles() for m in self.modules)

    @cached_property
    def stage_resources(self) -> tuple:
        """Resource estimate of every stage, in module order."""
        return tuple(m.resources() for m in self.modules)

    @cached_property
    def _total_resources(self) -> ResourceEstimate:
        return sum(self.stage_resources, ResourceEstimate())

    @cached_property
    def _exit_cycles(self) -> tuple:
        return tuple(sum(self.stage_cycles[i] for i in path)
                     for path in self.exit_paths)

    # -- aggregates ------------------------------------------------------
    def resources(self) -> ResourceEstimate:
        return self._total_resources

    def resources_of(self, module_indices) -> ResourceEstimate:
        return sum((self.stage_resources[i] for i in module_indices),
                   ResourceEstimate())

    def exit_modules(self, exit_idx: int) -> list:
        return [self.modules[i] for i in self.exit_paths[exit_idx]]

    def exit_cycles(self, exit_idx: int) -> int:
        """Cycles for one frame to traverse every stage to this exit."""
        return self._exit_cycles[exit_idx]

    def exit_latency_s(self, exit_idx: int) -> float:
        return self.exit_cycles(exit_idx) / self.clock_hz

    def bottleneck_cycles(self) -> int:
        """Initiation interval of the full pipeline (slowest stage)."""
        return max(self.stage_cycles)

    def pipelined_ips(self) -> float:
        """Steady-state throughput when frames are streamed back to back."""
        return self.clock_hz / self.bottleneck_cycles()

    def branch_overhead_resources(self) -> ResourceEstimate:
        """Resources attributable to exit branches (branch modules plus
        all stages reachable only on exit paths)."""
        final = set(self.exit_paths[-1]) if self.exit_paths else set()
        extra = [i for i in range(len(self.modules)) if i not in final]
        return self.resources_of(extra)


def _exit_rate_vector(rates, num_exits: int) -> np.ndarray:
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (num_exits,):
        raise ValueError(f"need {num_exits} exit rates, got shape {rates.shape}")
    if rates.min() < 0 or not np.isclose(rates.sum(), 1.0):
        raise ValueError("exit rates must be a probability vector")
    return rates


def compile_accelerator(
    graph: IRGraph,
    folding: FoldingConfig | None = None,
    clock_mhz: float = 100.0,
    name: str | None = None,
    zero_skip: bool = False,
    zero_skip_overhead: float = ZERO_SKIP_OVERHEAD,
) -> DataflowAccelerator:
    """Map a streamlined IR graph onto HLS module models.

    With ``zero_skip=True`` every MVTU becomes a zero-skipping unit: its
    cycle count scales with the non-zero density of the layer's weights,
    floored at ``zero_skip_overhead`` (see
    :func:`repro.finn.hls.zero_skip_factor`). The density is the node's
    ``attrs["density"]`` when it has one (a weightless graph from
    :func:`repro.ir.passes.with_widths` carries its source weights'
    density there), else that of its ``weight`` initializer. Opt-in
    because it changes every cycle/throughput figure — quantized W2A2
    weights are already ~half zeros before any pruning.
    """
    folding = folding or FoldingConfig()
    accel = DataflowAccelerator(name=name or graph.name, clock_mhz=clock_mhz)

    def _density(node: IRNode) -> float:
        if not zero_skip:
            return 1.0
        if "density" in node.attrs:
            return node.attrs["density"]
        return weight_density(node.initializers["weight"])

    order = graph.topological_order()
    absorbed: set[str] = set()  # MultiThreshold nodes folded into MVTUs
    # alias: tensor equivalences for zero-hardware nodes (Flatten)
    alias: dict[str, str] = {}

    def producer_of(tensor: str):
        t = alias.get(tensor, tensor)
        return accel._tensor_producer.get(t)

    def register(tensors, module_index):
        for t in tensors:
            accel._tensor_producer[t] = module_index

    def maybe_absorb_threshold(node: IRNode) -> tuple[str, int]:
        """If the node's single consumer is MultiThreshold, fold it.

        Returns (output tensor after absorption, threshold levels)."""
        out = node.outputs[0]
        consumers = graph.consumers(out)
        if len(consumers) == 1 and consumers[0].op_type == "MultiThreshold":
            mt = consumers[0]
            absorbed.add(mt.name)
            return mt.outputs[0], mt.initializers["thresholds"].shape[1]
        return out, 0

    for node in order:
        if node.name in absorbed:
            continue
        in_tensor = node.inputs[0]
        in_info = graph.tensors[alias.get(in_tensor, in_tensor)]

        if node.op_type == "Flatten":
            alias[node.outputs[0]] = alias.get(in_tensor, in_tensor)
            continue

        if node.op_type == "Conv":
            c_in, h_in, w_in = graph.tensors[in_tensor].shape
            c_out, h_out, w_out = graph.tensors[node.outputs[0]].shape
            k = node.attrs["kernel"]
            fold = folding.get(_bare_name(node.name))
            simd = _largest_divisor_leq(c_in, fold.simd)
            pe = _largest_divisor_leq(c_out, fold.pe)
            wbits = node.attrs.get("weight_bits", 32)
            out_tensor, levels = maybe_absorb_threshold(node)
            abits_out = graph.tensors[out_tensor].bits
            swu = SlidingWindowUnit(
                name=f"{node.name}.swu", in_channels=c_in, in_width=w_in,
                kernel=k, out_pixels=h_out * w_out, simd=simd,
                act_bits=in_info.bits if in_info.bits <= 8 else 8,
            )
            mvtu = MVTU(
                name=f"{node.name}.mvtu", rows=c_out, cols=k * k * c_in,
                pe=pe, simd=simd, vectors=h_out * w_out,
                weight_bits=wbits,
                act_bits=abits_out if levels else 8,
                thresholds=levels,
                density=_density(node),
                zero_skip_overhead=zero_skip_overhead,
            )
            accel.modules.append(swu)
            accel.modules.append(mvtu)
            idx = len(accel.modules) - 1
            register([out_tensor, node.outputs[0]], idx)

        elif node.op_type == "MatMul":
            in_f = graph.tensors[alias.get(in_tensor, in_tensor)].elements
            out_f = graph.tensors[node.outputs[0]].elements
            fold = folding.get(_bare_name(node.name))
            simd = _largest_divisor_leq(in_f, fold.simd)
            pe = _largest_divisor_leq(out_f, fold.pe)
            out_tensor, levels = maybe_absorb_threshold(node)
            abits_out = graph.tensors[out_tensor].bits
            mvtu = MVTU(
                name=f"{node.name}.mvtu", rows=out_f, cols=in_f,
                pe=pe, simd=simd, vectors=1,
                weight_bits=node.attrs.get("weight_bits", 32),
                act_bits=abits_out if levels else 8,
                thresholds=levels,
                density=_density(node),
                zero_skip_overhead=zero_skip_overhead,
            )
            accel.modules.append(mvtu)
            idx = len(accel.modules) - 1
            register([out_tensor, node.outputs[0]], idx)

        elif node.op_type == "MaxPool":
            c, h, w = graph.tensors[in_tensor].shape
            pool = PoolUnit(
                name=f"{node.name}.pool", channels=c, kernel=node.attrs["kernel"],
                in_pixels=h * w, act_bits=min(in_info.bits, 8),
            )
            accel.modules.append(pool)
            register(node.outputs, len(accel.modules) - 1)

        elif node.op_type == "DuplicateStreams":
            shape = graph.tensors[alias.get(in_tensor, in_tensor)].shape
            c = shape[0]
            px = int(np.prod(shape[1:])) if len(shape) > 1 else 1
            dup = DuplicateStreamsUnit(
                name=f"{node.name}.dup", channels=c, pixels=px,
                act_bits=min(in_info.bits, 8),
            )
            accel.modules.append(dup)
            register(node.outputs, len(accel.modules) - 1)

        elif node.op_type == "MultiThreshold":
            shape = graph.tensors[in_tensor].shape
            c = shape[0]
            px = int(np.prod(shape[1:])) if len(shape) > 1 else 1
            levels = node.initializers["thresholds"].shape[1]
            unit = ThresholdUnit(name=f"{node.name}.thr", channels=c,
                                 pixels=px, levels=levels)
            accel.modules.append(unit)
            register(node.outputs, len(accel.modules) - 1)

        elif node.op_type == "BatchNorm":
            raise CompileError(
                f"unstreamlined BatchNorm {node.name!r}: run "
                "repro.ir.streamline before compiling"
            )
        else:
            raise CompileError(f"unmappable op {node.op_type!r} ({node.name})")

    # Reconstruct per-exit stage paths by walking producers backwards.
    node_of_tensor = {t: n for n in graph.nodes for t in n.outputs}
    for out in graph.output_names:
        path: list[int] = []
        tensor = out
        while True:
            t = alias.get(tensor, tensor)
            idx = accel._tensor_producer.get(t)
            node = node_of_tensor.get(t)
            if idx is not None and (not path or path[-1] != idx):
                # A Conv contributes two stages (SWU before MVTU).
                if isinstance(accel.modules[idx], MVTU) and idx > 0 and \
                        isinstance(accel.modules[idx - 1], SlidingWindowUnit) \
                        and accel.modules[idx - 1].name.startswith(
                            accel.modules[idx].name.rsplit(".", 1)[0]):
                    path.extend([idx, idx - 1])
                else:
                    path.append(idx)
            if node is None:
                break
            tensor = node.inputs[0]
            if alias.get(tensor, tensor) == graph.input_name:
                break
        accel.exit_paths.append(sorted(set(path)))

    accel.metadata["num_exits"] = graph.metadata.get("num_exits",
                                                     len(accel.exit_paths))
    accel.metadata["zero_skip"] = zero_skip
    return accel
