"""The full-width hardware twin, built the long way: the oracle for the
Library Generator's shape-compiled accelerators.

Each design point's hardware twin used to be a real model: the
untrained full-width twin was cloned and pruned, post-training
quantized, exported, streamlined and compiled. The Library Generator
now compiles the same accelerator from the accuracy twin's graph at
hardware widths (``LibraryGenerator._compile_hardware_twin``); these
helpers keep the old path so tests can check that both agree.
"""

from repro.core.design_time import _mvtu_layer_costs
from repro.finn.compile import compile_accelerator
from repro.ir.export import export_model
from repro.ir.passes import streamline
from repro.nn.quant import post_training_quantize
from repro.pruning.pruner import prune_model


def full_width_accelerator(gen, ctx, rate, precision, criterion):
    """``(accel, report)`` of the pruned full-width hardware twin:
    prune, PTQ, export, streamline, compile, device check."""
    cfg = gen.config
    crit = gen._resolve_criterion(ctx, criterion)
    hw, report = prune_model(ctx.hw_base, rate,
                             constraints=ctx.hw_constraints,
                             prune_exits=ctx.pruned_exits, criterion=crit)
    spec = cfg.precision_spec(precision)
    if spec is not None:
        hw = post_training_quantize(hw, spec.weight_bits, spec.act_bits)
    graph = export_model(hw)
    streamline(graph)
    accel = compile_accelerator(graph, ctx.folding, clock_mhz=cfg.clock_mhz,
                                zero_skip=cfg.zero_skip)
    cfg.device.check(accel.resources())
    return accel, report


def full_width_layer_costs(gen, ctx):
    """HAPM's per-layer MVTU cycle costs, read off the compiled unpruned
    full-width hardware twin."""
    graph = export_model(ctx.hw_base)
    streamline(graph)
    accel = compile_accelerator(graph, ctx.folding,
                                clock_mhz=gen.config.clock_mhz,
                                zero_skip=gen.config.zero_skip)
    return _mvtu_layer_costs(accel)


def accuracy_twin_graph(gen, ctx, rate, precision, criterion):
    """The accuracy twin's streamlined graph at one design point (the
    base pruned, not retrained: only its shapes matter here)."""
    cfg = gen.config
    crit = gen._resolve_criterion(ctx, criterion)
    scaled, _ = prune_model(ctx.scaled_base, rate,
                            constraints=ctx.scaled_constraints,
                            prune_exits=ctx.pruned_exits, criterion=crit)
    spec = cfg.precision_spec(precision)
    if spec is not None:
        scaled = post_training_quantize(scaled, spec.weight_bits,
                                        spec.act_bits)
    graph = export_model(scaled)
    streamline(graph)
    return graph
