"""ONNX-like intermediate representation for exported models.

The design-time flow exports each pruned early-exit model as a small
graph IR (the stand-in for the paper's ONNX export) that the FINN-like
compiler consumes. The IR is executable — :meth:`IRGraph.execute` runs a
batch through the graph — which lets tests assert that export and the
streamlining transformations preserve the network function exactly.

Supported operator set (everything CNV + exits lower to):

``Conv``             attrs: stride, padding, weight_bits; initializer W (+ bias)
``MatMul``           attrs: weight_bits; initializer W (+ bias)
``BatchNorm``        initializers scale, shift (inference-time affine)
``MultiThreshold``   initializers thresholds (C, L) and signs (C,); attrs step
``MaxPool``          attrs: kernel, stride
``Flatten``          —
``DuplicateStreams`` two outputs: backbone continuation + exit branch
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TensorInfo", "IRNode", "IRGraph", "check_batch"]

_VALID_OPS = {
    "Conv", "MatMul", "BatchNorm", "MultiThreshold", "MaxPool", "Flatten",
    "DuplicateStreams",
}


def check_batch(x: np.ndarray, shape: tuple) -> None:
    """Raise ``ValueError`` unless ``x`` is a non-empty batch of
    ``shape``-shaped samples."""
    shape = tuple(shape)
    if x.ndim != len(shape) + 1 or x.shape[1:] != shape or not x.shape[0]:
        raise ValueError(
            f"input must be a non-empty batch of samples shaped {shape}, "
            f"i.e. (N, {', '.join(map(str, shape))}) with N >= 1; "
            f"got {x.shape}")


@dataclass
class TensorInfo:
    """Shape/precision metadata of one tensor (per-sample, no batch dim)."""

    name: str
    shape: tuple
    bits: int = 32  # activation precision flowing through this tensor

    @property
    def elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def stream_bits(self) -> int:
        """Bits needed to stream one element set of this tensor."""
        return self.elements * self.bits


@dataclass
class IRNode:
    """One operator instance."""

    op_type: str
    name: str
    inputs: list
    outputs: list
    attrs: dict = field(default_factory=dict)
    initializers: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op_type not in _VALID_OPS:
            raise ValueError(f"unsupported op_type {self.op_type!r}")
        if not self.outputs:
            raise ValueError(f"node {self.name} has no outputs")


class IRGraph:
    """A dataflow graph of :class:`IRNode` with single-producer tensors."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: list[IRNode] = []
        self.tensors: dict[str, TensorInfo] = {}
        self.input_name: str | None = None
        self.output_names: list[str] = []
        self.metadata: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def set_input(self, name: str, shape: tuple, bits: int = 32) -> None:
        self.input_name = name
        self.tensors[name] = TensorInfo(name, tuple(shape), bits)

    def add_tensor(self, name: str, shape: tuple, bits: int = 32) -> None:
        if name in self.tensors:
            raise ValueError(f"tensor {name!r} already defined")
        self.tensors[name] = TensorInfo(name, tuple(shape), bits)

    def add_node(self, node: IRNode) -> IRNode:
        for t in node.inputs:
            if t not in self.tensors:
                raise ValueError(f"node {node.name}: unknown input tensor {t!r}")
        for t in node.outputs:
            if t not in self.tensors:
                raise ValueError(f"node {node.name}: undeclared output tensor {t!r}")
        if any(n.name == node.name for n in self.nodes):
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        return node

    def mark_output(self, tensor_name: str) -> None:
        if tensor_name not in self.tensors:
            raise ValueError(f"unknown tensor {tensor_name!r}")
        self.output_names.append(tensor_name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def producer(self, tensor_name: str) -> IRNode | None:
        for node in self.nodes:
            if tensor_name in node.outputs:
                return node
        return None

    def consumers(self, tensor_name: str) -> list[IRNode]:
        return [n for n in self.nodes if tensor_name in n.inputs]

    def node_by_name(self, name: str) -> IRNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def topological_order(self) -> list[IRNode]:
        """Nodes in dependency order (raises on cycles/dangling inputs)."""
        ready = {self.input_name}
        remaining = list(self.nodes)
        order = []
        while remaining:
            progressed = False
            still = []
            for node in remaining:
                if all(t in ready for t in node.inputs):
                    order.append(node)
                    ready.update(node.outputs)
                    progressed = True
                else:
                    still.append(node)
            remaining = still
            if not progressed:
                names = [n.name for n in remaining]
                raise ValueError(f"graph has a cycle or dangling inputs: {names}")
        return order

    def validate(self) -> None:
        """Structural checks: single producer per tensor, outputs produced,
        acyclicity."""
        produced: dict[str, str] = {}
        for node in self.nodes:
            for t in node.outputs:
                if t in produced:
                    raise ValueError(
                        f"tensor {t!r} produced by both {produced[t]} "
                        f"and {node.name}"
                    )
                produced[t] = node.name
        if self.input_name is None:
            raise ValueError("graph has no input")
        for out in self.output_names:
            if out not in produced:
                raise ValueError(f"graph output {out!r} has no producer")
        self.topological_order()

    # ------------------------------------------------------------------
    # execution (reference semantics, used by tests)
    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> list[np.ndarray]:
        """Run a batch through the graph; returns one array per output."""
        from . import executors

        x = np.asarray(x)
        check_batch(x, self.tensors[self.input_name].shape)
        values: dict[str, np.ndarray] = {self.input_name: x}
        for node in self.topological_order():
            ins = [values[t] for t in node.inputs]
            outs = executors.execute_node(node, ins)
            for t, v in zip(node.outputs, outs):
                values[t] = v
        return [values[t] for t in self.output_names]

    def compile(self, dtype=np.float64, timer=None, memo=None):
        """Compile into a fused :class:`~repro.ir.engine.ExecutionPlan`.

        Convenience wrapper around :func:`repro.ir.engine.compile_graph`;
        see there for the numerical contract. The graph must be
        streamlined (no ``BatchNorm`` node); ``memo`` (a
        :class:`~repro.ir.engine.StepMemo`) shares step outputs with the
        other plans compiled against it.
        """
        from .engine import compile_graph

        return compile_graph(self, dtype=dtype, timer=timer, memo=memo)

    # ------------------------------------------------------------------
    # mutation helpers for passes
    # ------------------------------------------------------------------
    def remove_node(self, node: IRNode, rewire_to: str | None = None) -> None:
        """Remove a single-input single-output node, rewiring consumers.

        ``rewire_to`` defaults to the node's input tensor: consumers of the
        node's output are repointed there, and graph outputs are updated.
        """
        if len(node.inputs) != 1 or len(node.outputs) != 1:
            raise ValueError("can only remove single-input/single-output nodes")
        src = rewire_to or node.inputs[0]
        out = node.outputs[0]
        for consumer in self.consumers(out):
            consumer.inputs = [src if t == out else t for t in consumer.inputs]
        self.output_names = [src if t == out else t for t in self.output_names]
        self.nodes.remove(node)
        self.tensors.pop(out, None)

    def stats(self) -> dict:
        """Counts per op type plus totals (used in reports/logs)."""
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.op_type] = counts.get(node.op_type, 0) + 1
        weights = sum(
            int(v.size)
            for n in self.nodes
            for k, v in n.initializers.items()
            if k == "weight"
        )
        return {"op_counts": counts, "num_nodes": len(self.nodes),
                "weight_elements": weights}
