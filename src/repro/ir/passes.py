"""Streamlining transformations on the IR.

FINN's compiler "streamlines" exported quantized networks so every
remaining op is dataflow-mappable. The key transformation reproduced here
is BatchNorm absorption: an inference-time affine ``a*x + b`` followed by
a MultiThreshold can be folded into per-channel thresholds
``t' = (t - b) / a`` (with the comparison direction flipped wherever
``a < 0``), leaving a pure threshold unit that maps straight into the
MVTU's threshold memory.
"""

from __future__ import annotations

import copy

import numpy as np

from .graph import IRGraph, IRNode, TensorInfo

__all__ = ["absorb_batchnorm", "streamline", "count_unabsorbed_batchnorms",
           "weight_density", "with_widths"]


def _fold_affine_into_thresholds(thresholds: np.ndarray, signs: np.ndarray,
                                 scale: np.ndarray, shift: np.ndarray):
    """New (thresholds, signs) so that counting crossings of ``x`` equals
    counting crossings of ``scale*x + shift`` against the old thresholds.

    All channels at once. Each operand keeps its own dtype (``(C, 1)``
    columns broadcast against the ``(C, levels)`` rows), so every value
    is computed in the dtype a per-channel loop over NumPy scalars
    would use, then stored as float64."""
    a = scale[:, None]
    b = shift[:, None]
    s = signs[:, None]
    new_t = np.empty(thresholds.shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        new_t[...] = (thresholds - b) / a  # zero rows are replaced below
    new_s = np.empty(signs.shape, dtype=np.float64)
    new_s[...] = signs * np.sign(scale)
    zero = scale == 0.0
    if zero.any():
        # BN output is the constant b: each threshold is either always
        # or never crossed regardless of x.
        crossed = (s[zero] * b[zero]) > (s[zero] * thresholds[zero])
        new_t[zero] = np.where(crossed, -np.inf, np.inf)
        new_s[zero] = 1.0
    # Flipping direction reverses threshold order; keep them ascending
    # in crossing order for the hardware unit.
    neg = scale < 0
    new_t[neg] = new_t[neg, ::-1]
    return new_t, new_s


def absorb_batchnorm(graph: IRGraph) -> int:
    """Fold every BatchNorm that feeds a MultiThreshold; returns #folded."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for node in list(graph.nodes):
            if node.op_type != "MultiThreshold":
                continue
            producer = graph.producer(node.inputs[0])
            if producer is None or producer.op_type != "BatchNorm":
                continue
            if len(graph.consumers(producer.outputs[0])) != 1:
                continue  # BN output also used elsewhere; cannot fold
            scale = producer.initializers["scale"]
            shift = producer.initializers["shift"]
            new_t, new_s = _fold_affine_into_thresholds(
                node.initializers["thresholds"],
                node.initializers["signs"],
                scale, shift,
            )
            node.initializers["thresholds"] = new_t
            node.initializers["signs"] = new_s
            graph.remove_node(producer)
            folded += 1
            changed = True
    return folded


def count_unabsorbed_batchnorms(graph: IRGraph) -> int:
    return sum(1 for n in graph.nodes if n.op_type == "BatchNorm")


def weight_density(weight: np.ndarray) -> float:
    """Non-zero fraction of a weight tensor (1.0 for an empty one)."""
    if weight.size == 0:
        return 1.0
    return float(np.count_nonzero(weight)) / weight.size


def with_widths(graph: IRGraph, widths: dict) -> IRGraph:
    """A weightless copy of ``graph`` at other channel widths.

    ``widths`` maps the bare name of every Conv/MatMul node
    (``b0_conv0``, ``fc1``) to its output channels (or features). Every
    other tensor's width follows from its producer: per-channel ops
    keep their input's channels and a Flatten multiplies them by the
    spatial size, which is the same at any width. Topology, attributes
    and precisions are copied unchanged. No weight is copied: each
    Conv/MatMul instead records its source weight's non-zero fraction
    as ``attrs["density"]`` (what :func:`repro.finn.compile_accelerator`
    reads for zero-skipping MVTUs), and each MultiThreshold keeps a
    zero-filled threshold table of the new width, so the copy describes
    a network's shape for hardware mapping but cannot be executed
    meaningfully.

    The Library Generator compiles each design point's hardware twin
    this way from the accuracy twin's streamlined graph: both twins are
    one architecture at two widths.
    """
    g = IRGraph(graph.name)
    g.metadata = dict(graph.metadata)
    g.input_name = graph.input_name
    g.output_names = list(graph.output_names)
    g.tensors[graph.input_name] = copy.copy(graph.tensors[graph.input_name])

    def _add(name: str, channels: int) -> None:
        info = graph.tensors[name]
        g.tensors[name] = TensorInfo(name, (channels,) + info.shape[1:],
                                     info.bits)

    for node in graph.topological_order():
        src = g.tensors[node.inputs[0]]
        initializers = {}
        attrs = dict(node.attrs)
        if node.op_type in ("Conv", "MatMul"):
            bare = node.name.split("/")[-1]
            if bare not in widths:
                raise ValueError(f"no width given for {node.name!r}")
            attrs["density"] = weight_density(node.initializers["weight"])
            _add(node.outputs[0], int(widths[bare]))
        elif node.op_type == "Flatten":
            _add(node.outputs[0], src.elements)
        else:
            for out in node.outputs:
                _add(out, src.shape[0])
            if node.op_type == "MultiThreshold":
                levels = node.initializers["thresholds"].shape[1]
                initializers["thresholds"] = np.zeros((src.shape[0], levels))
        g.nodes.append(IRNode(node.op_type, node.name, list(node.inputs),
                              list(node.outputs), attrs, initializers))
    return g


def streamline(graph: IRGraph) -> dict:
    """Run the full streamlining pipeline; returns a small report dict.

    After streamlining, a dataflow-mappable graph contains only Conv,
    MatMul, MultiThreshold, MaxPool, Flatten, and DuplicateStreams nodes.
    A BatchNorm whose only consumer is not a MultiThreshold (a graph
    output, a MaxPool) remains, counted in ``batchnorms_remaining``; the
    CNV topology has none, and :func:`repro.ir.engine.compile_graph`
    rejects a graph that does.
    """
    folded = absorb_batchnorm(graph)
    graph.validate()
    return {
        "batchnorms_absorbed": folded,
        "batchnorms_remaining": count_unabsorbed_batchnorms(graph),
        "num_nodes": len(graph.nodes),
    }
