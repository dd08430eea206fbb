"""Executable ONNX-like IR: export, streamlining, and the compiled engine."""

from .engine import ExecutionPlan, StepMemo, compile_graph
from .export import export_model
from .graph import IRGraph, IRNode, TensorInfo
from .passes import (
    absorb_batchnorm,
    count_unabsorbed_batchnorms,
    streamline,
    weight_density,
    with_widths,
)

__all__ = [
    "ExecutionPlan", "StepMemo", "compile_graph",
    "export_model",
    "IRGraph", "IRNode", "TensorInfo",
    "absorb_batchnorm", "count_unabsorbed_batchnorms",
    "streamline", "weight_density", "with_widths",
]
