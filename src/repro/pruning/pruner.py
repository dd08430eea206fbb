"""Structured filter pruning of early-exit CNV models.

Implements the paper's Dataflow-Aware Pruning: for every CONV layer,
``r_i`` filters are removed according to the l1-norm ranking, where
``r_i`` is first reduced until the FINN folding constraints hold
(:mod:`repro.pruning.dataflow`). Pruning a filter removes the
corresponding output channel everywhere it is consumed:

* the layer's own weight/bias rows and the following BatchNorm,
* the *next* CONV layer's input channels,
* the input channels of any early-exit branch attached to the block, and
* the columns of the first FC layer after a Flatten (channel-major).

Exit CONV layers are pruned at the same rate when the exit's ``pruned``
flag is set ("Pruned Exits") and left untouched otherwise ("Not Pruned
Exits").

Pruned channels are physically removed, so layer widths shrink: this is
the network the Library Generator retrains, measures and compiles to
hardware. Soft pruning
(:func:`repro.pruning.schedule.soft_prune_epoch`) zeroes the weakest
filters in place between epochs instead; its final hard prune slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.graph import BranchedModel, Sequential
from ..nn.layers import BatchNorm, Conv2D, Flatten, Linear
from .dataflow import (LayerFoldConstraint, PruningError, adjust_removal,
                       requested_removal)
from .ranking import get_criterion, select_keep_filters

__all__ = ["CountPlan", "LayerCount", "PruneDecision", "PruneReport",
           "PruningError", "plan_counts", "prune_model"]


@dataclass(frozen=True)
class LayerCount:
    """How many filters one CONV layer loses at a pruning rate."""

    layer_name: str
    channels_before: int
    requested_removal: int
    achieved_removal: int

    @property
    def channels_after(self) -> int:
        return self.channels_before - self.achieved_removal

    @property
    def achieved_rate(self) -> float:
        return self.achieved_removal / self.channels_before


@dataclass(frozen=True)
class PruneDecision(LayerCount):
    """What happened to one CONV layer: its counts and the kept filters."""

    keep: tuple = ()


def _achieved_rate(counts) -> float:
    """Filter-weighted overall achieved pruning rate."""
    before = sum(c.channels_before for c in counts)
    removed = sum(c.achieved_removal for c in counts)
    return removed / before if before else 0.0


@dataclass(frozen=True)
class CountPlan:
    """Per-layer filter counts of one pruning pass, decided from shapes.

    Everything a pass decides except *which* filters go:
    :func:`plan_counts` computes it from the unpruned layer widths, the
    rate and the folding constraints (plus, for a criterion with a
    cross-layer :meth:`~repro.pruning.ranking.PruningCriterion.allocate`,
    the unpruned weights). :func:`prune_model` slices by it, and the
    Library Generator reads the hardware twin's widths off it without
    pruning any weights.
    """

    rate: float
    prune_exits: bool
    counts: tuple = ()

    def __getitem__(self, layer_name: str) -> LayerCount:
        for count in self.counts:
            if count.layer_name == layer_name:
                return count
        raise KeyError(layer_name)

    @property
    def achieved_rate(self) -> float:
        """Filter-weighted overall achieved pruning rate."""
        return _achieved_rate(self.counts)

    def widths(self) -> dict:
        """Pruned output width of every planned CONV layer."""
        return {c.layer_name: c.channels_after for c in self.counts}


@dataclass
class PruneReport:
    """Summary of a whole-model pruning pass."""

    rate: float
    prune_exits: bool
    decisions: list = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Filter-weighted overall achieved pruning rate."""
        return _achieved_rate(self.decisions)

    def decision_for(self, layer_name: str) -> PruneDecision:
        for d in self.decisions:
            if d.layer_name == layer_name:
                return d
        raise KeyError(layer_name)


def _layer_input_shapes(seq: Sequential, input_shape: tuple) -> list[tuple]:
    """Input shape seen by every layer of a Sequential."""
    shapes = []
    shape = input_shape
    for layer in seq.layers:
        shapes.append(shape)
        shape = layer.output_shape(shape)
    return shapes


def _mask_conv_out(conv: Conv2D, keep: np.ndarray) -> None:
    """Zero the weight rows and bias of every filter not in ``keep``."""
    drop = np.ones(conv.out_channels, dtype=bool)
    drop[keep] = False
    conv.params["weight"][drop] = 0.0
    if conv.has_bias:
        conv.params["bias"][drop] = 0.0
    conv.zero_grad()


def _slice_bn(bn: BatchNorm, keep: np.ndarray) -> None:
    bn.params["gamma"] = bn.params["gamma"][keep]
    bn.params["beta"] = bn.params["beta"][keep]
    bn.grads["gamma"] = np.zeros_like(bn.params["gamma"])
    bn.grads["beta"] = np.zeros_like(bn.params["beta"])
    bn.running_mean = bn.running_mean[keep]
    bn.running_var = bn.running_var[keep]
    bn.num_features = len(keep)


def _slice_conv_out(conv: Conv2D, keep: np.ndarray) -> None:
    conv.params["weight"] = conv.params["weight"][keep]
    if conv.has_bias:
        conv.params["bias"] = conv.params["bias"][keep]
    conv.out_channels = len(keep)
    conv.zero_grad()


def _slice_conv_in(conv: Conv2D, keep: np.ndarray) -> None:
    conv.params["weight"] = conv.params["weight"][:, keep]
    conv.in_channels = len(keep)
    conv.zero_grad()


def _slice_linear_in_channels(linear: Linear, keep: np.ndarray,
                              spatial: tuple) -> None:
    """Remove channel groups from an FC fed by a flattened (C, H, W) map."""
    h, w = spatial
    out_f, in_f = linear.params["weight"].shape
    c = in_f // (h * w)
    if c * h * w != in_f:
        raise PruningError(
            f"{linear.name}: in_features={in_f} not divisible by "
            f"spatial {h}x{w}"
        )
    w4 = linear.params["weight"].reshape(out_f, c, h, w)
    linear.params["weight"] = w4[:, keep].reshape(out_f, -1)
    linear.in_features = linear.params["weight"].shape[1]
    linear.zero_grad()


def _find_next(layers: list, start: int, cls) -> int | None:
    for j in range(start, len(layers)):
        if isinstance(layers[j], cls):
            return j
    return None


def _spatial_upto(layers: list, stop: int, hw: tuple) -> tuple:
    """Track only (H, W) through ``layers[:stop]`` (channel-agnostic).

    Needed when the channel count is mid-slice and full shape inference
    would reject the temporarily inconsistent widths.
    """
    from ..nn import functional as F
    from ..nn.layers import MaxPool2d

    h, w = hw
    for layer in layers[:stop]:
        if isinstance(layer, Conv2D):
            h = F.conv_output_size(h, layer.kernel_size, layer.stride,
                                   layer.padding)
            w = F.conv_output_size(w, layer.kernel_size, layer.stride,
                                   layer.padding)
        elif isinstance(layer, MaxPool2d):
            h = F.conv_output_size(h, layer.kernel_size, layer.stride, 0)
            w = F.conv_output_size(w, layer.kernel_size, layer.stride, 0)
    return h, w


def _apply_downstream(seq: Sequential, conv_pos: int, keep: np.ndarray,
                      shapes: list[tuple]) -> bool:
    """Propagate an out-channel removal to consumers inside one Sequential.

    Returns True if a consumer was found inside this Sequential; False if
    the pruned channels flow out of the Sequential (i.e., the caller must
    handle cross-segment consumers).
    """
    layers = seq.layers
    j = conv_pos + 1
    while j < len(layers):
        layer = layers[j]
        if isinstance(layer, BatchNorm):
            _slice_bn(layer, keep)
        elif isinstance(layer, Conv2D):
            _slice_conv_in(layer, keep)
            return True
        elif isinstance(layer, Flatten):
            lin_pos = _find_next(layers, j + 1, Linear)
            if lin_pos is None:
                raise PruningError(
                    f"{seq.name}: Flatten without a following Linear"
                )
            _, h, w = shapes[j]
            _slice_linear_in_channels(layers[lin_pos], keep, (h, w))
            return True
        j += 1
    return False


def _prune_sequential_convs(
    seq: Sequential,
    input_shape: tuple,
    plan: CountPlan,
    report: PruneReport,
    criterion="l1",
) -> np.ndarray | None:
    """Prune every CONV inside one Sequential by the plan's counts.

    Returns the keep-set of the last conv if its channels escape the
    Sequential (no internal consumer), else None.
    """
    escaping = None
    for pos, layer in enumerate(seq.layers):
        if not isinstance(layer, Conv2D):
            continue
        shapes = _layer_input_shapes(seq, input_shape)
        count = plan[layer.name]
        keep = select_keep_filters(layer.params["weight"],
                                   count.achieved_removal,
                                   criterion=criterion)
        _slice_conv_out(layer, keep)
        consumed = _apply_downstream(seq, pos, keep, shapes)
        report.decisions.append(PruneDecision(
            layer.name, count.channels_before, count.requested_removal,
            count.achieved_removal, tuple(int(k) for k in keep)
        ))
        if not consumed:
            escaping = keep
    return escaping


def _prunable_convs(model: BranchedModel, prune_exits: bool) -> list:
    """Every CONV a pruning pass touches, in deterministic order:
    backbone segments, then exit branches by host block."""
    convs = []
    for seg in model.segments:
        convs.extend(l for l in seg.layers if isinstance(l, Conv2D))
    if prune_exits:
        for si in sorted(model.exits):
            convs.extend(l for l in model.exits[si].layers
                         if isinstance(l, Conv2D))
    return convs


def plan_counts(
    model: BranchedModel,
    rate: float,
    constraints: dict[str, LayerFoldConstraint] | None = None,
    prune_exits: bool = True,
    criterion="l1",
) -> CountPlan:
    """The per-layer counts a pruning pass at ``rate`` removes.

    Each prunable CONV (backbone, then exit branches when
    ``prune_exits``) asks for ``requested_removal(out_channels, rate)``
    filters, or for the criterion's cross-layer allocation over the
    model's unpruned weights (HAPM); :func:`adjust_removal` then lowers
    the request until the layer's folding constraint holds. Nothing is
    cloned or sliced, so a plan of a never-trained twin costs only the
    arithmetic. Arguments as in :func:`prune_model`.

    Raises
    ------
    PruningError
        A constraint's folding does not divide its unpruned layer.
    """
    constraints = constraints or {}
    criterion = get_criterion(criterion)
    pairs = [(conv.name, conv.params["weight"])
             for conv in _prunable_convs(model, prune_exits)]
    removal_map = criterion.allocate(pairs, rate) or {}
    counts = []
    for name, weight in pairs:
        ch_out = weight.shape[0]
        if name in removal_map:
            requested = min(removal_map[name], ch_out - 1)
        else:
            requested = requested_removal(ch_out, rate)
        achieved = adjust_removal(
            ch_out, requested, constraints.get(name, LayerFoldConstraint()),
            layer=name)
        counts.append(LayerCount(name, ch_out, requested, achieved))
    return CountPlan(rate=rate, prune_exits=prune_exits,
                     counts=tuple(counts))


def _check_shape(layer, key: str, array: np.ndarray, expected: tuple) -> None:
    if array.shape != expected:
        raise PruningError(
            f"{layer.name}: {key} has shape {array.shape}, expected {expected}"
        )


def _check_sequential(seq: Sequential, shape: tuple) -> tuple:
    """Output shape of ``seq`` for a ``shape`` input, checking each layer's
    arrays against the channels (or features) flowing into it."""
    for layer in seq.layers:
        try:  # Conv/Linear: input width == in_channels/in_features
            out = layer.output_shape(shape)
        except ValueError as exc:
            raise PruningError(f"{layer.name}: {exc}") from exc
        if isinstance(layer, (Conv2D, Linear)):
            if isinstance(layer, Conv2D):
                k = layer.kernel_size
                expected = (layer.out_channels, layer.in_channels, k, k)
            else:
                expected = (layer.out_features, layer.in_features)
            _check_shape(layer, "weight", layer.params["weight"], expected)
            if layer.has_bias:
                _check_shape(layer, "bias", layer.params["bias"],
                             expected[:1])
        elif isinstance(layer, BatchNorm):
            if len(shape) not in (1, 3) or layer.num_features != shape[0]:
                raise PruningError(
                    f"{layer.name}: {layer.num_features} features on input "
                    f"{shape}"
                )
            for key, array in (("gamma", layer.params["gamma"]),
                               ("beta", layer.params["beta"]),
                               ("running_mean", layer.running_mean),
                               ("running_var", layer.running_var)):
                _check_shape(layer, key, array, shape[:1])
        shape = out
    return shape


def _check_structure(model: BranchedModel) -> None:
    """Raise :class:`PruningError` unless every layer's arrays fit the
    channels flowing into it, on the paths ``forward`` takes: backbone
    segments in order, each exit branch on its segment's output."""
    shape = model.input_shape
    for si, seg in enumerate(model.segments):
        shape = _check_sequential(seg, shape)
        if si in model.exits:
            _check_sequential(model.exits[si], shape)


def prune_model(
    model: BranchedModel,
    rate: float,
    constraints: dict[str, LayerFoldConstraint] | None = None,
    prune_exits: bool = True,
    criterion="l1",
) -> tuple[BranchedModel, PruneReport]:
    """Prune a (possibly branched) model at one pruning rate.

    Parameters
    ----------
    model:
        The trained early-exit model. It is not modified; a pruned clone
        is returned.
    rate:
        Fraction of filters to remove from every CONV layer, in [0, 1).
    constraints:
        Optional per-layer folding constraints keyed by CONV layer name
        (see :func:`repro.finn.folding.fold_constraints`). Missing layers
        get the unconstrained default.
    prune_exits:
        Prune exit CONV layers at the same rate (the "Pruned Exits"
        variant). Ignored for models without exits.
    criterion:
        Ranking criterion — a registry name (``"l1"``, ``"fpgm"``,
        ``"hapm"``) or a :class:`repro.pruning.ranking.PruningCriterion`
        instance. Criteria with a cross-layer :meth:`allocate` (HAPM)
        redistribute the removal budget over the prunable CONVs before
        per-layer fold-constraint adjustment; all criteria share the
        same stable index tie-break.

    Returns
    -------
    ``(pruned_model, report)``: a clone whose pruned channels are
    physically removed, in eval mode.

    Raises
    ------
    PruningError
        The rate cannot be applied to this structure, or the pruned
        model is inconsistent. A static check walks the segments and
        exit branches the way ``forward`` does and compares every
        layer's arrays with the channel count flowing into it: Conv
        weight ``(out, in, k, k)`` and bias, BatchNorm ``gamma``,
        ``beta``, ``running_mean`` and ``running_var``, and Linear
        weight columns (after a Flatten, ``C*H*W``). It runs no forward
        pass. The error is permanent, so supervision quarantines the
        design point instead of retrying it.
    """
    criterion = get_criterion(criterion)
    # Counts come from the unpruned model; per-layer rankings later run
    # on the progressively pruned tensors, which is deterministic
    # because layers are visited in a fixed order.
    plan = plan_counts(model, rate, constraints, prune_exits, criterion)
    new = model.clone()
    report = PruneReport(rate=rate, prune_exits=prune_exits)

    shape = new.input_shape
    pending: np.ndarray | None = None  # keep-set escaping the previous segment
    seg_input_shapes = []
    for si, seg in enumerate(new.segments):
        seg_input_shapes.append(shape)
        if pending is not None:
            # Channels flowed across the segment boundary: the consumer is
            # the first conv (or flatten->linear) of this segment.
            handled = False
            for pos, layer in enumerate(seg.layers):
                if isinstance(layer, Conv2D):
                    _slice_conv_in(layer, pending)
                    handled = True
                    break
                if isinstance(layer, Flatten):
                    lin_pos = _find_next(seg.layers, pos + 1, Linear)
                    h, w = _spatial_upto(seg.layers, pos, shape[1:])
                    _slice_linear_in_channels(seg.layers[lin_pos], pending,
                                              (h, w))
                    handled = True
                    break
            if not handled:
                raise PruningError(f"segment {si}: no consumer for pruned channels")
            pending = None

        escaping = _prune_sequential_convs(seg, shape, plan, report,
                                           criterion)

        # Exit branches see the segment output. Their input channels must
        # follow the backbone pruning regardless of the pruned flag.
        if si in new.exits and escaping is not None:
            first = new.exits[si].layers[0]
            if not isinstance(first, Conv2D):
                raise PruningError("exit branches must start with a CONV layer")
            _slice_conv_in(first, escaping)
        if si + 1 < len(new.segments):
            pending = escaping
        elif escaping is not None:
            raise PruningError("final backbone conv has no consumer")
        shape = seg.output_shape(shape)

    # Prune exit conv layers (out channels) if requested.
    if prune_exits:
        for si, branch in new.exits.items():
            branch_input = new.segments[si].output_shape(seg_input_shapes[si])
            _prune_sequential_convs(branch, branch_input, plan, report,
                                    criterion)

    _check_structure(new)
    new.eval()
    return new, report
