"""Reference training kernels: the textbook im2col/col2im formulation.

These are the kernels ``repro.nn`` trained with before it was
restructured (two-stage im2col fill, channels-last convolution input
gradient without col2im, no input gradient for a model's first layer,
buffer-reusing BatchNorm, direct MaxPool scatter, STE mask reusing the
forward pass's scale). They live here only as the oracle the restructured kernels
must match byte for byte; :func:`install` swaps them into the package
for end-to-end comparisons, and :func:`assert_same_bytes` is the
comparison.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.graph import BranchedModel
from repro.nn.layers import BatchNorm, QuantConv2D, QuantLinear
from repro.nn.quant import ste_mask


def im2col(x, kernel, stride=1, padding=0):
    """Patch rows as one copy of the 6-D window view in row order."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)), mode="constant")
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols)


def col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Adjoint of :func:`repro.nn.functional.im2col`: scatter-add patch
    rows back into an image (overlapping windows accumulate)."""
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)

    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)

    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, :, ki:i_max:stride, kj:j_max:stride] += cols6[:, :, :, :, ki, kj]

    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_backward(grad_out, x_shape, weight, cols, stride=1, padding=0):
    """``(grad_x, grad_weight, grad_bias)`` through one GEMM and col2im."""
    out_ch, in_ch, kernel, _ = weight.shape
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_ch)

    grad_weight = (grad_flat.T @ cols).reshape(weight.shape)
    grad_bias = grad_flat.sum(axis=0)
    grad_cols = grad_flat @ weight.reshape(out_ch, -1)
    grad_x = col2im(grad_cols, x_shape, kernel, stride, padding)
    return grad_x, grad_weight, grad_bias


def maxpool2d_backward(grad_out, argmax, x_shape, kernel, stride=None):
    """Route pooled gradients to the argmax positions with ``np.add.at``."""
    stride = kernel if stride is None else stride
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)

    ki = argmax // kernel
    kj = argmax % kernel
    oi = np.arange(out_h)[None, None, :, None]
    oj = np.arange(out_w)[None, None, None, :]
    rows = oi * stride + ki
    cols = oj * stride + kj
    nn_idx = np.arange(n)[:, None, None, None]
    cc_idx = np.arange(c)[None, :, None, None]
    np.add.at(grad_x, (nn_idx, cc_idx, rows, cols), grad_out)
    return grad_x


def batchnorm_forward(self, x):
    axes = self._axes(x)
    if self.training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        self.running_mean = (
            self.momentum * self.running_mean + (1 - self.momentum) * mean
        )
        self.running_var = (
            self.momentum * self.running_var + (1 - self.momentum) * var
        )
    else:
        mean, var = self.running_mean, self.running_var
    std = np.sqrt(var + self.eps)
    x_hat = (x - self._reshape(mean, x.ndim)) / self._reshape(std, x.ndim)
    out = self._reshape(self.params["gamma"], x.ndim) * x_hat + self._reshape(
        self.params["beta"], x.ndim
    )
    self._cache = (x_hat, std, axes, x.ndim)
    return out


def batchnorm_backward(self, grad_out):
    x_hat, std, axes, ndim = self._cache
    self.grads["gamma"] += (grad_out * x_hat).sum(axis=axes)
    self.grads["beta"] += grad_out.sum(axis=axes)
    gamma = self._reshape(self.params["gamma"], ndim)
    g = grad_out * gamma
    if self.training:
        g_mean = g.mean(axis=axes)
        gx_mean = (g * x_hat).mean(axis=axes)
        grad_x = (
            g
            - self._reshape(g_mean, ndim)
            - x_hat * self._reshape(gx_mean, ndim)
        ) / self._reshape(std, ndim)
    else:
        grad_x = g / self._reshape(std, ndim)
    return grad_x


def quant_weight_grad(self, grad_w, scale):
    """STE mask recomputed from the weights (``np.std`` again)."""
    return grad_w * ste_mask(self.params["weight"], self.quant.weight_bits)


def model_backward(self, exit_grads):
    """Back-propagate through every layer, down to the input images."""
    if len(exit_grads) != self.num_exits:
        raise ValueError(
            f"expected {self.num_exits} exit gradients, got {len(exit_grads)}"
        )
    early_grads = dict(zip(self.exits.keys(), exit_grads[:-1]))
    grad = exit_grads[-1]
    for i in range(len(self.segments) - 1, -1, -1):
        if i in early_grads:
            grad = grad + self.exits[i].backward(early_grads[i])
        grad = self.segments[i].backward(grad)
    return grad


def install(monkeypatch) -> None:
    """Train with the reference kernels for the rest of the test."""
    monkeypatch.setattr(F, "conv2d_backward", conv2d_backward)
    monkeypatch.setattr(F, "im2col", im2col)
    monkeypatch.setattr(F, "maxpool2d_backward", maxpool2d_backward)
    monkeypatch.setattr(BatchNorm, "forward", batchnorm_forward)
    monkeypatch.setattr(BatchNorm, "backward", batchnorm_backward)
    monkeypatch.setattr(QuantConv2D, "_weight_grad", quant_weight_grad)
    monkeypatch.setattr(QuantLinear, "_weight_grad", quant_weight_grad)
    monkeypatch.setattr(BranchedModel, "backward", model_backward)


#: Memory layouts the training kernels meet (see :func:`as_layout`).
LAYOUTS = st.sampled_from(["nchw", "nhwc", "padded"])


def as_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` (NCHW-contiguous) in ``layout``: itself, an NCHW view of
    channels-last memory (a conv output), or the interior of a larger
    zero-padded image (a padded conv's input gradient)."""
    if layout == "nchw" or a.ndim != 4:
        return a
    if layout == "nhwc":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    n, c, h, w = a.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    padded[:, :, 1:-1, 1:-1] = a
    return padded[:, :, 1:-1, 1:-1]


def assert_same_bytes(new: np.ndarray, old: np.ndarray) -> None:
    """Same dtype, shape, bytes and memory layout (the strides of every
    axis longer than one)."""
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()
    layout = [(s, n) for s, n in zip(new.strides, new.shape) if n > 1]
    assert layout == [(s, n) for s, n in zip(old.strides, old.shape) if n > 1]
