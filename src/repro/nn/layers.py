"""Trainable layers for the NumPy substrate.

Each :class:`Layer` owns its parameters (``params``) and gradient buffers
(``grads``) and implements ``forward``/``backward``. Quantized variants
(:class:`QuantConv2D`, :class:`QuantLinear`, :class:`QuantReLU`) keep
full-precision shadow parameters and fake-quantize on the forward pass,
back-propagating through the straight-through estimator — the same scheme
Brevitas uses for CNV-W2A2.

Layout contract: every 4-D activation and gradient a layer takes or
returns is channel-major ``(C, N, H, W)`` (see :mod:`.functional`), and
2-D ones are ``(N, features)``. :class:`Flatten` is the bridge: it turns
``(C, N, H, W)`` into ``(N, C*H*W)`` in the per-image ``(c, h, w)`` order
an NCHW flatten gives, so Linear weights, pruning, the IR export and the
compiled engine read the same feature order whatever the training
layout. :meth:`~repro.nn.graph.BranchedModel.forward` takes NCHW images
and transposes them once.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .quant import (
    QuantSpec,
    auto_weight_scale,
    quantize_activations,
    quantize_weights,
    ste_mask,
)

__all__ = [
    "Layer",
    "Conv2D",
    "QuantConv2D",
    "Linear",
    "QuantLinear",
    "BatchNorm",
    "MaxPool2d",
    "ReLU",
    "QuantReLU",
    "Flatten",
    "Identity",
]


class Layer:
    """Base class: a differentiable, stateful computation node."""

    #: Backward scratch the last forward pass left behind (im2col
    #: columns, BatchNorm's ``x_hat``, argmax taps, STE masks, inputs).
    #: ``backward``/``backward_params`` consume it: it is ``None`` once
    #: the layer's gradients exist, so a training step holds each
    #: layer's scratch only until its backward has run. Not part of the
    #: layer's state: copies and pickles leave it out (see
    #: :meth:`__getstate__`).
    _cache = None

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.training = True

    # -- interface -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate the parameter gradients, release the scratch of the
        last forward pass and return the input gradient. Each forward
        pass supports one backward call."""
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate the parameter gradients only: the backward pass of a
        model's first layer, whose input gradient nobody reads. Releases
        the scratch like :meth:`backward`."""
        self.backward(grad_out)

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape (without batch dim) produced for a given input shape."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def zero_grad(self) -> None:
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def astype(self, dtype) -> "Layer":
        """Cast parameters and gradient buffers to ``dtype`` in place."""
        for k in self.params:
            self.params[k] = self.params[k].astype(dtype, copy=False)
        for k in self.grads:
            self.grads[k] = self.grads[k].astype(dtype, copy=False)
        return self

    @property
    def param_dtype(self):
        """Dtype of the parameters (``float64`` for parameterless layers)."""
        for p in self.params.values():
            return p.dtype
        return np.dtype(np.float64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_cache", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


def _kaiming(shape, fan_in, rng):
    return rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=shape)


class Conv2D(Layer):
    """Plain float 2-D convolution (square kernel, channel-major input)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        if padding < 0:
            raise ValueError("padding must be >= 0")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params["weight"] = _kaiming(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        self.has_bias = bias
        if bias:
            self.params["bias"] = np.zeros(out_channels)
        self.zero_grad()
        self._cache = None

    # weight actually used in the forward pass (quantized in subclasses)
    def effective_weight(self) -> np.ndarray:
        return self._forward_weight()[0]

    def _forward_weight(self):
        """``(weight used in the forward pass, its quantization scale)``."""
        return self.params["weight"], None

    def _weight_grad(self, grad_w: np.ndarray, scale) -> np.ndarray:
        return grad_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        w, scale = self._forward_weight()
        b = self.params.get("bias")
        out, cols = F.conv2d_forward_cm(x, w, b, self.stride, self.padding)
        self._cache = (x.shape, cols, w, scale)
        return out

    def _accumulate(self, grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        self.grads["weight"] += self._weight_grad(grad_w, self._cache[3])
        if self.has_bias:
            self.grads["bias"] += grad_b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, w = self._cache[0], self._cache[2]
        # The columns die with the weight GEMM, before ``W.T @ g``
        # allocates a matrix of their size.
        self.backward_params(grad_out)
        return F.conv2d_input_backward_cm(grad_out, x_shape, w, self.stride,
                                          self.padding)

    def backward_params(self, grad_out: np.ndarray) -> None:
        cols, w = self._cache[1], self._cache[2]
        self._accumulate(*F.conv2d_param_backward_cm(grad_out, w.shape,
                                                      cols))
        self._cache = None

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, oh, ow)

    def macs(self, input_shape: tuple) -> int:
        """Multiply-accumulate count for one inference at this input shape."""
        _, oh, ow = self.output_shape(input_shape)
        k2 = self.kernel_size * self.kernel_size
        return self.out_channels * oh * ow * k2 * self.in_channels


class _QuantWeights:
    """Fake-quantized weights with a straight-through-estimator backward.

    The forward pass's quantization scale is kept with the backward
    scratch, so the STE mask does not recompute it.
    """

    def __init__(self, *args, quant: QuantSpec | None = None, **kwargs):
        self.quant = quant or QuantSpec()
        super().__init__(*args, **kwargs)

    def _forward_weight(self):
        w, bits = self.params["weight"], self.quant.weight_bits
        scale = auto_weight_scale(w, bits)
        return quantize_weights(w, bits, scale), scale

    def _weight_grad(self, grad_w: np.ndarray, scale) -> np.ndarray:
        return grad_w * ste_mask(self.params["weight"], self.quant.weight_bits,
                                 scale)


class QuantConv2D(_QuantWeights, Conv2D):
    """Convolution with fake-quantized weights (STE backward)."""


class Linear(Layer):
    """Fully-connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = _kaiming((out_features, in_features), in_features, rng)
        self.has_bias = bias
        if bias:
            self.params["bias"] = np.zeros(out_features)
        self.zero_grad()
        self._cache = None

    def effective_weight(self) -> np.ndarray:
        return self._forward_weight()[0]

    def _forward_weight(self):
        """``(weight used in the forward pass, its quantization scale)``."""
        return self.params["weight"], None

    def _weight_grad(self, grad_w: np.ndarray, scale) -> np.ndarray:
        return grad_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        w, scale = self._forward_weight()
        self._cache = (x, w, scale)
        out = x @ w.T
        if self.has_bias:
            out += self.params["bias"]
        return out

    def backward_params(self, grad_out: np.ndarray) -> None:
        x, _, scale = self._cache
        self._cache = None
        self.grads["weight"] += self._weight_grad(grad_out.T @ x, scale)
        if self.has_bias:
            self.grads["bias"] += grad_out.sum(axis=0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        w = self._cache[1]
        self.backward_params(grad_out)
        return grad_out @ w

    def output_shape(self, input_shape: tuple) -> tuple:
        if input_shape != (self.in_features,):
            raise ValueError(
                f"{self.name}: expected ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def macs(self, input_shape: tuple) -> int:
        return self.in_features * self.out_features


class QuantLinear(_QuantWeights, Linear):
    """Fully-connected layer with fake-quantized weights (STE backward)."""


class BatchNorm(Layer):
    """Batch normalization over the channel axis (2-D or 4-D inputs)."""

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 name: str = ""):
        super().__init__(name)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(num_features)
        self.params["beta"] = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.zero_grad()
        self._cache = None

    @staticmethod
    def _rows(x):
        """``(rows, axis, shape)``: a 4-D ``(C, N, H, W)`` input as its
        contiguous ``(C, N*H*W)`` channel rows, reduced along axis 1, or a
        2-D ``(N, C)`` input as is, reduced along axis 0; ``shape``
        broadcasts a per-channel vector against ``rows``."""
        if x.ndim == 4:
            return x.reshape(x.shape[0], -1), 1, (-1, 1)
        if x.ndim == 2:
            return x, 0, (1, -1)
        raise ValueError(f"BatchNorm expects 2-D or 4-D input, got {x.ndim}-D")

    # The batch statistics are NumPy sums along each channel's row: a
    # 4-D input's contiguous ``N*H*W`` row sums pairwise, a 2-D
    # ``(N, C)`` input (``C >= 2``) one image after another, the order
    # NumPy reduces strided columns in. ``+ 0.0`` because a sum starts
    # from zero, so a row of ``-0.0`` has mean ``0.0``. The order is a
    # choice: a pre-activation within an ulp of its channel's mean
    # (common with quantized inputs and ternary weights) gets an
    # ``x_hat`` of rounding noise whose sign decides QuantReLU's STE
    # mask, so another summation order trains along another path. Every
    # elementwise step keeps the operands and order of the textbook
    # formulas (and ``np.var``'s internals), writing into buffers it
    # owns.
    def forward(self, x: np.ndarray) -> np.ndarray:
        rows, axis, shape = self._rows(x)
        if self.training:
            n = rows.shape[axis]
            mean = (rows.sum(axis=axis) + 0.0) / n
            x_hat = rows - mean.reshape(shape)  # centered, then x_hat
            out = np.square(x_hat)  # squares, then out
            var = out.sum(axis=axis) / n
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
            x_hat = rows - mean.reshape(shape)
            out = np.empty_like(x_hat)
        std = np.sqrt(var + self.eps)
        x_hat /= std.reshape(shape)
        np.multiply(self.params["gamma"].reshape(shape), x_hat, out=out)
        out += self.params["beta"].reshape(shape)
        self._cache = (x_hat, std, axis, shape)
        return out.reshape(x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, std, axis, shape = self._cache
        self._cache = None
        grad = grad_out.reshape(x_hat.shape)
        scratch = grad * x_hat
        self.grads["gamma"] += scratch.sum(axis=axis)
        self.grads["beta"] += grad.sum(axis=axis)
        g = grad * self.params["gamma"].reshape(shape)
        if self.training:
            # (g - mean(g) - x_hat * mean(g * x_hat)) / std
            g_mean = g.mean(axis=axis)
            gx_mean = np.multiply(g, x_hat, out=scratch).mean(axis=axis)
            g -= g_mean.reshape(shape)
            g -= np.multiply(x_hat, gx_mean.reshape(shape), out=scratch)
        g /= std.reshape(shape)
        return g.reshape(grad_out.shape)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def macs(self, input_shape: tuple) -> int:
        return 0

    def astype(self, dtype) -> "Layer":
        super().astype(dtype)
        self.running_mean = self.running_mean.astype(dtype, copy=False)
        self.running_var = self.running_var.astype(dtype, copy=False)
        return self

    def fold_scale_shift(self):
        """Return the affine (scale, shift) this BN applies at inference.

        FINN's streamlining absorbs BN into the following threshold unit;
        the IR export uses these values.
        """
        std = np.sqrt(self.running_var + self.eps)
        scale = self.params["gamma"] / std
        shift = self.params["beta"] - self.running_mean * scale
        return scale, shift


class MaxPool2d(Layer):
    """Square max pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None, name: str = ""):
        super().__init__(name)
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if stride is not None and stride < 1:
            raise ValueError("stride must be >= 1")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.maxpool2d_forward_cm(x, self.kernel_size, self.stride)
        self._cache = (x.shape, argmax)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, argmax = self._cache
        self._cache = None
        return F.maxpool2d_backward_cm(
            grad_out, argmax, x_shape, self.kernel_size, self.stride
        )

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        oh = F.conv_output_size(h, self.kernel_size, self.stride, 0)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, oh, ow)

    def macs(self, input_shape: tuple) -> int:
        return 0


class ReLU(Layer):
    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, self._cache = self._cache, None
        return F.relu_grad(x, grad_out)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def macs(self, input_shape: tuple) -> int:
        return 0


class QuantReLU(Layer):
    """Quantized activation: clipped ReLU to ``2**act_bits`` levels (STE)."""

    def __init__(self, quant: QuantSpec | None = None, name: str = ""):
        super().__init__(name)
        self.quant = quant or QuantSpec()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The STE mask, a byte per value where the input took eight.
        inside = x > 0
        inside &= x < self.quant.act_range
        self._cache = inside
        return quantize_activations(x, self.quant.act_bits, self.quant.act_range)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        inside, self._cache = self._cache, None
        return grad_out * inside

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def macs(self, input_shape: tuple) -> int:
        return 0


class Flatten(Layer):
    """``(C, N, H, W) -> (N, C*H*W)``, each image's features in NCHW
    ``(c, h, w)`` order (any other input keeps its leading batch axis)."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        if x.ndim == 4:
            return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape, self._cache = self._cache, None
        if len(shape) == 4:
            c, n, h, w = shape
            return np.ascontiguousarray(
                grad_out.reshape(n, c, h, w).transpose(1, 0, 2, 3))
        return grad_out.reshape(shape)

    def output_shape(self, input_shape: tuple) -> tuple:
        return (int(np.prod(input_shape)),)

    def macs(self, input_shape: tuple) -> int:
        return 0


class Identity(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def macs(self, input_shape: tuple) -> int:
        return 0
