"""Reference training kernels, in two layouts.

*Channel-major textbook kernels* (``cm_*``): the ``(C, N, H, W)``
formulation ``repro.nn`` trains with, written in the plainest order (one
copy of a window view for im2col, col2im tap by tap into a zeroed padded
image, ``np.argmax`` over flattened pooling windows, ``np.add.at``
scatter, BatchNorm's statistics each channel's row mean and the
textbook gradient). The package's kernels must match them byte for byte.

*NCHW kernels*: the im2col/col2im formulation ``repro.nn`` trained with
before its layers went channel-major. :func:`install` swaps them into
the layers and the model for end-to-end comparisons: a model trained
through them must give the same library bytes, and the channel-major
kernels must agree with them to rounding. Their BatchNorm statistics are
the channel-major reference's, so its forward pass is byte-equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.graph import BranchedModel
from repro.nn.layers import BatchNorm, Conv2D, Flatten, MaxPool2d
from repro.nn.quant import ste_mask


# ----------------------------------------------------------------------
# channel-major (C, N, H, W) textbook kernels
# ----------------------------------------------------------------------
def _windows(x, kernel, stride, out_h, out_w):
    """``(C, N, out_h, out_w, k, k)`` view of every window of ``x``."""
    s0, s1, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=x.shape[:2] + (out_h, out_w, kernel, kernel),
        strides=(s0, s1, sh * stride, sw * stride, sh, sw), writeable=False)


def cm_im2col(x, kernel, stride=1, padding=0):
    """``(C*k*k, N*oh*ow)`` patch columns, rows in weight order."""
    c, n, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = _windows(x, kernel, stride, out_h, out_w)
    return np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3)).reshape(
        c * kernel * kernel, n * out_h * out_w)


def cm_col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Adjoint of :func:`cm_im2col`: tap rows added into a zeroed padded
    image in (ki, kj) order, then the interior."""
    c, n, h, w = x_shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    taps = cols.reshape(c, kernel, kernel, n, out_h, out_w)
    padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding),
                      dtype=cols.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[:, :, ki:ki + stride * out_h:stride,
                   kj:kj + stride * out_w:stride] += taps[:, ki, kj]
    return np.ascontiguousarray(
        padded[:, :, padding:padding + h, padding:padding + w])


def cm_conv2d_forward(x, weight, bias, stride=1, padding=0):
    out_ch, _, kernel, _ = weight.shape
    out_h = F.conv_output_size(x.shape[2], kernel, stride, padding)
    out_w = F.conv_output_size(x.shape[3], kernel, stride, padding)
    cols = cm_im2col(x, kernel, stride, padding)
    out = weight.reshape(out_ch, -1) @ cols
    if bias is not None:
        out = out + bias[:, None]
    return out.reshape(out_ch, x.shape[1], out_h, out_w), cols


def cm_conv2d_backward(grad_out, x_shape, weight, cols, stride=1, padding=0):
    """``(grad_x, grad_weight, grad_bias)``: ``g @ cols.T``, ``g``'s row
    sums and col2im of ``W.T @ g``."""
    out_ch, _, kernel, _ = weight.shape
    g = np.ascontiguousarray(grad_out).reshape(out_ch, -1)
    grad_weight = (g @ cols.T).reshape(weight.shape)
    grad_bias = g.sum(axis=1)
    grad_x = cm_col2im(weight.reshape(out_ch, -1).T @ g, x_shape, kernel,
                       stride, padding)
    return grad_x, grad_weight, grad_bias


def cm_maxpool2d_forward(x, kernel, stride=None):
    stride = kernel if stride is None else stride
    c, n, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, 0)
    out_w = F.conv_output_size(w, kernel, stride, 0)
    flat = _windows(x, kernel, stride, out_h, out_w).reshape(
        c, n, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    return np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0], argmax


def cm_maxpool2d_backward(grad_out, argmax, x_shape, kernel, stride=None):
    stride = kernel if stride is None else stride
    c, n, _, _ = x_shape
    out_h, out_w = grad_out.shape[2:]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    rows = np.arange(out_h)[None, None, :, None] * stride + argmax // kernel
    cols = np.arange(out_w)[None, None, None, :] * stride + argmax % kernel
    np.add.at(grad_x, (np.arange(c)[:, None, None, None],
                       np.arange(n)[None, :, None, None], rows, cols),
              grad_out)
    return grad_x


def _bn_rows(x):
    """``(rows, axis, shape)``: ``(C, N*H*W)`` channel rows reduced along
    axis 1, or an ``(N, C)`` input along axis 0; ``shape`` broadcasts a
    per-channel vector."""
    if x.ndim == 4:
        return x.reshape(x.shape[0], -1), 1, (-1, 1)
    return x, 0, (1, -1)


def _row_mean(rows, axis):
    """Mean of each channel's values, taken as one 1-D array in
    ``(N, H, W)`` order and summed by NumPy (pairwise from 8 values on),
    except that an ``(N, C)`` input with ``C >= 2`` sums one image after
    another from zero: its channels are strided columns, which NumPy
    reduces in sequence. ``+ 0.0``: a row of ``-0.0`` has mean ``0.0``."""
    if axis == 0 and rows.shape[1] > 1:
        total = np.zeros_like(rows[0])
        for row in rows:
            total += row
    else:
        channels = rows if axis == 1 else rows.T
        total = np.array([np.ascontiguousarray(c).sum() for c in channels],
                         dtype=rows.dtype)
    return (total + 0.0) / rows.shape[axis]


def cm_batchnorm_forward(bn, x):
    """Textbook BatchNorm of a ``(C, N, H, W)`` or ``(N, C)`` input, its
    statistics each channel's row mean (:func:`_row_mean`)."""
    rows, axis, shape = _bn_rows(x)
    if bn.training:
        mean = _row_mean(rows, axis)
        var = _row_mean(np.square(rows - mean.reshape(shape)), axis)
        bn.running_mean = bn.momentum * bn.running_mean \
            + (1 - bn.momentum) * mean
        bn.running_var = bn.momentum * bn.running_var \
            + (1 - bn.momentum) * var
    else:
        mean, var = bn.running_mean, bn.running_var
    std = np.sqrt(var + bn.eps)
    x_hat = (rows - mean.reshape(shape)) / std.reshape(shape)
    out = bn.params["gamma"].reshape(shape) * x_hat \
        + bn.params["beta"].reshape(shape)
    bn._cache = (x_hat, std, axis, shape)
    return out.reshape(x.shape)


def cm_batchnorm_backward(bn, grad_out):
    x_hat, std, axis, shape = bn._cache
    grad = grad_out.reshape(x_hat.shape)
    bn.grads["gamma"] += (grad * x_hat).sum(axis=axis)
    bn.grads["beta"] += grad.sum(axis=axis)
    g = grad * bn.params["gamma"].reshape(shape)
    if bn.training:
        g = (g - g.mean(axis=axis).reshape(shape)
             - x_hat * (g * x_hat).mean(axis=axis).reshape(shape))
    return (g / std.reshape(shape)).reshape(grad_out.shape)


def quant_weight_grad(self, grad_w, scale):
    """STE mask recomputed from the weights (``np.std`` again)."""
    return grad_w * ste_mask(self.params["weight"], self.quant.weight_bits)


def cm_quant_relu(x, bits, act_range):
    """``(out, backward)`` of the STE-quantized clipped ReLU."""
    step = act_range / (2 ** bits - 1)
    out = np.round(np.clip(x, 0.0, act_range) / step) * step
    return out, lambda grad: grad * ((x > 0) & (x < act_range))


# ----------------------------------------------------------------------
# NCHW kernels (the layout training used before)
# ----------------------------------------------------------------------
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


def _nchw_axes(x):
    if x.ndim == 4:
        return (0, 2, 3), (1, -1, 1, 1)
    if x.ndim == 2:
        return (0,), (1, -1)
    raise ValueError(f"BatchNorm expects 2-D or 4-D input, got {x.ndim}-D")


def batchnorm_forward(self, x):
    axes, shape = _nchw_axes(x)
    if self.training:
        # The statistics of the channel-major reference: each channel's
        # row mean, whatever the memory layout of ``x``.
        rows, axis, row_shape = _bn_rows(nchw(x))
        mean = _row_mean(rows, axis)
        var = _row_mean(np.square(rows - mean.reshape(row_shape)), axis)
        self.running_mean = (
            self.momentum * self.running_mean + (1 - self.momentum) * mean
        )
        self.running_var = (
            self.momentum * self.running_var + (1 - self.momentum) * var
        )
    else:
        mean, var = self.running_mean, self.running_var
    std = np.sqrt(var + self.eps)
    x_hat = (x - mean.reshape(shape)) / std.reshape(shape)
    out = self.params["gamma"].reshape(shape) * x_hat \
        + self.params["beta"].reshape(shape)
    self._cache = (x_hat, std, axes, shape)
    return out


def batchnorm_backward(self, grad_out):
    x_hat, std, axes, shape = self._cache
    self.grads["gamma"] += (grad_out * x_hat).sum(axis=axes)
    self.grads["beta"] += grad_out.sum(axis=axes)
    g = grad_out * self.params["gamma"].reshape(shape)
    if self.training:
        g_mean = g.mean(axis=axes)
        gx_mean = (g * x_hat).mean(axis=axes)
        return (g - g_mean.reshape(shape)
                - x_hat * gx_mean.reshape(shape)) / std.reshape(shape)
    return g / std.reshape(shape)


def conv_forward(self, x):
    w, scale = self._forward_weight()
    out, cols = F.conv2d_forward(x, w, self.params.get("bias"), self.stride,
                                 self.padding)
    self._cache = (x.shape, cols, w, scale)
    return out


def conv_backward(self, grad_out):
    x_shape, cols, w, _ = self._cache
    grad_x, grad_w, grad_b = conv2d_backward(grad_out, x_shape, w, cols,
                                             self.stride, self.padding)
    self._accumulate(grad_w, grad_b)
    return grad_x


def maxpool_forward(self, x):
    out, argmax = F.maxpool2d_forward(x, self.kernel_size, self.stride)
    self._cache = (x.shape, argmax)
    return out


def maxpool_backward(self, grad_out):
    x_shape, argmax = self._cache
    return maxpool2d_backward(grad_out, argmax, x_shape, self.kernel_size,
                              self.stride)


def flatten_forward(self, x):
    self._cache = x.shape
    return x.reshape(x.shape[0], -1)


def flatten_backward(self, grad_out):
    return grad_out.reshape(self._cache)


def model_forward(self, x):
    """Every path on NCHW activations."""
    h = np.asarray(x, dtype=self.param_dtype)
    outputs = []
    for i, seg in enumerate(self.segments):
        h = seg.forward(h)
        if i in self.exits:
            outputs.append(self.exits[i].forward(h))
    outputs.append(h)
    return outputs


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
    """Train on NCHW activations with these kernels for the rest of the
    test."""
    monkeypatch.setattr(Conv2D, "forward", conv_forward)
    monkeypatch.setattr(Conv2D, "backward", conv_backward)
    monkeypatch.setattr(MaxPool2d, "forward", maxpool_forward)
    monkeypatch.setattr(MaxPool2d, "backward", maxpool_backward)
    monkeypatch.setattr(BatchNorm, "forward", batchnorm_forward)
    monkeypatch.setattr(BatchNorm, "backward", batchnorm_backward)
    monkeypatch.setattr(Flatten, "forward", flatten_forward)
    monkeypatch.setattr(Flatten, "backward", flatten_backward)
    monkeypatch.setattr(BranchedModel, "forward", model_forward)
    monkeypatch.setattr(BranchedModel, "backward", model_backward)


def nchw(a: np.ndarray) -> np.ndarray:
    """A channel-major ``(C, N, H, W)`` array as NCHW (2-D as is)."""
    return a.transpose(1, 0, 2, 3) if a.ndim == 4 else a


#: Memory layouts of NCHW inputs (see :func:`as_layout`).
LAYOUTS = st.sampled_from(["nchw", "nhwc", "padded"])


def as_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` (NCHW-contiguous) in ``layout``: itself, an NCHW view of
    channels-last memory, or the interior of a larger zero-padded
    image."""
    if layout == "nchw" or a.ndim != 4:
        return a
    if layout == "nhwc":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    n, c, h, w = a.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    padded[:, :, 1:-1, 1:-1] = a
    return padded[:, :, 1:-1, 1:-1]


def assert_same_bytes(new: np.ndarray, old: np.ndarray) -> None:
    """Same dtype, shape, bytes (signed zeros and NaN payloads included)
    and memory layout (the strides of every axis longer than one)."""
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()
    layout = [(s, n) for s, n in zip(new.strides, new.shape) if n > 1]
    assert layout == [(s, n) for s, n in zip(old.strides, old.shape) if n > 1]


def assert_close(new: np.ndarray, old: np.ndarray) -> None:
    """Equal to ``rtol=1e-12`` of the largest magnitude (float32: to
    ``1e-5``, its own rounding), with NaN in the same places."""
    assert new.dtype == old.dtype and new.shape == old.shape
    np.testing.assert_array_equal(np.isnan(new), np.isnan(old))
    rtol = 1e-12 if new.dtype == np.float64 else 1e-5
    scale = float(np.nanmax(np.abs(old), initial=0.0))
    np.testing.assert_allclose(new, old, rtol=rtol, atol=rtol * scale,
                               equal_nan=True)
