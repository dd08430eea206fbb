"""Quantization-aware training primitives (Brevitas substitute).

The paper trains CNV with 2-bit weights and 2-bit activations (``CNVW2A2``)
in Brevitas. We reproduce the same scheme with straight-through-estimator
(STE) fake quantization:

* **Weights** — symmetric uniform quantization to ``2**bits - 1`` odd levels
  in ``[-scale, +scale]`` with per-tensor scale (max-abs). The backward pass
  passes gradients straight through (classic STE), optionally masking
  gradients of values outside the clip range.
* **Activations** — unsigned uniform quantization of a clipped ReLU to
  ``2**bits`` levels in ``[0, act_range]``, again with STE.

These match what FINN consumes: quantized activations become
multi-threshold units in hardware, quantized weights become the MVTU
weight memories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuantSpec",
    "PRECISION_SPECS",
    "auto_weight_scale",
    "quantize_weights",
    "weight_quant_levels",
    "quantize_activations",
    "activation_thresholds",
    "post_training_quantize",
    "ste_mask",
]


@dataclass(frozen=True)
class QuantSpec:
    """Bit widths for a quantized model (weights / activations)."""

    weight_bits: int = 2
    act_bits: int = 2
    act_range: float = 1.0  # activations are clipped to [0, act_range]

    def __post_init__(self):
        if self.weight_bits < 1 or self.weight_bits > 16:
            raise ValueError(f"weight_bits out of range: {self.weight_bits}")
        if self.act_bits < 1 or self.act_bits > 16:
            raise ValueError(f"act_bits out of range: {self.act_bits}")
        if self.act_range <= 0:
            raise ValueError("act_range must be positive")

    @property
    def name(self) -> str:
        """FINN-style tag, e.g. ``W2A2``."""
        return f"W{self.weight_bits}A{self.act_bits}"

    @property
    def weight_levels(self) -> int:
        """Number of representable weight values (symmetric, includes 0)."""
        return 2 ** self.weight_bits - 1

    @property
    def act_levels(self) -> int:
        """Number of representable activation values (unsigned)."""
        return 2 ** self.act_bits


# Named precision variants of the design space's precision axis. ``"base"``
# keeps whatever the model was trained with (the paper's W2A2) and is not
# listed here: only genuine re-quantizations need a spec.
PRECISION_SPECS: dict[str, QuantSpec] = {
    "int8": QuantSpec(weight_bits=8, act_bits=8),
}


def post_training_quantize(model, weight_bits: int = 8,
                           act_bits: int = 8):
    """Re-quantize a trained model to new bit widths (PTQ, no retraining).

    Every quantized layer (Conv/Linear weights, QuantReLU activations)
    keeps its full-precision shadow parameters and clip range but swaps
    its :class:`QuantSpec` for the new widths; the next forward pass
    fake-quantizes against the new grid. Going W2A2 -> W8A8 this is
    classic post-training quantization: the latent weights were trained
    with 2-bit STE, so INT8 inference is strictly more faithful to them
    and typically recovers a little accuracy at higher DSP/BRAM cost
    (see :func:`repro.finn.resources.dsp_for_macs`).

    Returns a clone; ``model`` is not modified.
    """
    new = model.clone()
    changed = 0
    for layer in new.all_layers():
        quant = getattr(layer, "quant", None)
        if quant is None:
            continue
        layer.quant = replace(quant, weight_bits=weight_bits,
                              act_bits=act_bits)
        changed += 1
    if not changed:
        raise ValueError(f"model {model.name!r} has no quantized layers")
    return new


def weight_quant_levels(bits: int, scale: float) -> np.ndarray:
    """Representable symmetric weight values for a given scale."""
    if bits == 1:
        return np.array([-scale, scale])
    # Symmetric grid of 2**bits - 1 values: -q*step ... 0 ... +q*step.
    q = 2 ** (bits - 1) - 1
    step = scale / q
    return np.arange(-q, q + 1) * step


def auto_weight_scale(w: np.ndarray, bits: int) -> float:
    """Robust per-tensor quantization scale.

    Max-abs scaling is hypersensitive to outliers at very low bit widths
    (a single large weight collapses almost everything else to the zero
    level), so we size the grid from the weight distribution instead:
    for the ternary 2-bit case the clip point sits at ~1.5 sigma (the
    round-to-nonzero threshold then falls near 0.75 sigma, keeping roughly
    half the weights active, as in ternary-weight-network practice), and
    for wider grids the clip point grows toward the usual 3-sigma clip.
    """
    sigma = float(np.std(w))
    if sigma == 0.0:
        return float(np.max(np.abs(w))) or 1.0
    if bits == 1:
        return float(np.mean(np.abs(w))) or sigma
    q = 2 ** (bits - 1) - 1
    return sigma * min(0.7 + 0.8 * q, 3.0)


def quantize_weights(w: np.ndarray, bits: int, scale: float | None = None) -> np.ndarray:
    """Fake-quantize a weight tensor symmetrically to ``bits`` bits.

    ``scale`` defaults to :func:`auto_weight_scale`; the quantizer maps
    values to the nearest of the ``2**bits - 1`` symmetric levels (binary
    case: sign * scale).
    """
    if scale is None:
        scale = auto_weight_scale(w, bits)
    if bits == 1:
        return np.where(w >= 0, scale, -scale)
    # For bits=2, q=1 gives exactly the ternary levels {-s, 0, +s}.
    q = 2 ** (bits - 1) - 1
    step = scale / q
    clipped = np.clip(w, -scale, scale)
    return np.round(clipped / step) * step


def ste_mask(w: np.ndarray, bits: int = 2, scale: float | None = None) -> np.ndarray:
    """Gradient mask for the STE: 1 inside the clip range, 0 outside."""
    if scale is None:
        scale = auto_weight_scale(w, bits)
    return (np.abs(w) <= scale).astype(w.dtype)


def quantize_activations(x: np.ndarray, bits: int, act_range: float = 1.0) -> np.ndarray:
    """Fake-quantize activations: clipped ReLU to ``2**bits`` uniform levels.

    The zero level is included, matching FINN's unsigned activation
    encoding. Values are clipped to ``[0, act_range]``.
    """
    levels = 2 ** bits - 1
    step = act_range / levels
    # round(clip(x) / step) * step, in place in the clipped copy.
    out = np.clip(x, 0.0, act_range)
    out /= step
    np.round(out, out=out)
    out *= step
    return out


def activation_thresholds(bits: int, act_range: float = 1.0) -> np.ndarray:
    """Threshold positions of the quantized activation.

    FINN lowers quantized activations to MultiThreshold nodes; crossing the
    k-th threshold raises the output code by one. The midpoints between
    quantization levels are exactly those thresholds.
    """
    levels = 2 ** bits - 1
    step = act_range / levels
    return (np.arange(levels) + 0.5) * step
