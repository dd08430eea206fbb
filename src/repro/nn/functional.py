"""Low-level numerical kernels for the NumPy neural-network substrate.

Everything here operates on ``numpy.ndarray`` in NCHW layout (batch,
channels, height, width). The convolution forward pass uses the classic
im2col lowering so the heavy lifting happens inside one BLAS matrix
multiply, which keeps pure-NumPy training tractable for the scaled-down
CNV models used across the reproduction. The backward pass needs no
col2im: the input gradient's single ``(rows, C*k*k)`` GEMM is scattered
tap by tap into a channels-last image, in the (ki, kj) order of im2col's
adjoint, a few whole images at a time (about ``_IM2COL_CHUNK`` elements
of the GEMM's output) so the accumulator stays in cache, and each
chunk's NCHW gradient is written in the same pass. Every gradient keeps
the bits and the strides of the textbook lowering.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "im2col_into",
    "conv2d_forward",
    "conv2d_backward",
    "conv2d_param_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "relu",
    "relu_grad",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ValueError(
            f"invalid window: kernel={kernel} and stride={stride} must be "
            f">= 1, padding={padding} must be >= 0"
        )
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


# Elements per chunk of whole images: of the (n, C, k, k, oh, ow) scratch
# im2col_into fills, so its transposing second stage reads from cache, and
# of the input gradient's GEMM output each scatter chunk reads.
_IM2COL_CHUNK = 1 << 15


def im2col_into(x: np.ndarray, kernel: int, stride: int, padding: int,
                cols: np.ndarray) -> np.ndarray:
    """Fill ``cols`` with the patches of ``x``; returns ``cols``.

    ``cols`` is a C-contiguous ``(N * out_h * out_w, C * kernel * kernel)``
    array laid out as :func:`im2col` returns it (values are cast to its
    dtype). The fill runs in two stages, a few images at a time: a copy
    of the sliding windows into an ``(n, C, k, k, out_h, out_w)`` scratch,
    whose inner loop runs along an output row, then one transpose of that
    scratch into the rows. A single copy of the window view in row order
    would run an inner loop only ``kernel`` elements long.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )

    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    patch, per_image = c * kernel * kernel, out_h * out_w
    if cols.shape != (n * per_image, patch) or not cols.flags.c_contiguous:
        raise ValueError(
            f"cols must be a C-contiguous {(n * per_image, patch)} array, "
            f"got shape {cols.shape}"
        )
    rows = cols.reshape(n, per_image, patch)
    chunk = max(1, _IM2COL_CHUNK // (patch * per_image))
    scratch = np.empty((min(chunk, n),) + windows.shape[1:], dtype=cols.dtype)
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        part = scratch[:i1 - i0]
        np.copyto(part, windows[i0:i1])
        np.copyto(rows[i0:i1],
                  part.reshape(i1 - i0, patch, per_image).transpose(0, 2, 1))
    return cols


def im2col(x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Lower input patches into a matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Square window parameters.

    Returns
    -------
    ndarray of shape ``(N * out_h * out_w, C * kernel * kernel)`` where each
    row is one receptive field, channel-major then row-major within the
    window (matching the weight layout ``W.reshape(out_ch, -1)``).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = np.empty((n * out_h * out_w, c * kernel * kernel), dtype=x.dtype)
    return im2col_into(x, kernel, stride, padding, cols)


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
):
    """2-D convolution forward pass.

    Returns ``(out, cols)`` where ``cols`` is the im2col matrix cached for
    the backward pass.
    """
    n, _, h, w = x.shape
    out_ch, _, kernel, _ = weight.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    cols = im2col(x, kernel, stride, padding)
    out = cols @ weight.reshape(out_ch, -1).T
    if bias is not None:
        out += bias
    out = out.reshape(n, out_h, out_w, out_ch).transpose(0, 3, 1, 2)
    return out, cols


def _grad_rows(grad_out: np.ndarray) -> np.ndarray:
    """``(N, C_out, H, W) -> (N*H*W, C_out)``, the row order of im2col."""
    return grad_out.transpose(0, 2, 3, 1).reshape(-1, grad_out.shape[1])


def _param_grads(grad_flat: np.ndarray, weight_shape: tuple, cols: np.ndarray):
    grad_weight = (grad_flat.T @ cols).reshape(weight_shape)
    return grad_weight, grad_flat.sum(axis=0)


def _conv2d_input_grad(grad_flat, x_shape, weight, stride, padding):
    """im2col's adjoint without col2im: the single ``(rows, C*k*k)`` GEMM,
    its tap columns added channels-last in (ki, kj) order, a few whole
    images at a time so the accumulator stays in cache."""
    n, c, h, w = x_shape
    out_ch, _, kernel, _ = weight.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    grad_cols = (grad_flat @ weight.reshape(out_ch, -1)).reshape(
        n, out_h, out_w, c, kernel, kernel)

    hp, wp = h + 2 * padding, w + 2 * padding
    chunk = max(1, _IM2COL_CHUNK // (out_h * out_w * c * kernel * kernel))
    acc = np.empty((min(chunk, n), hp, wp, c), dtype=grad_cols.dtype)
    # NCHW, with the strides of the padded image im2col's adjoint builds.
    grad_x = np.empty((n, c, hp, wp), dtype=grad_cols.dtype)[
        :, :, padding:padding + h, padding:padding + w]
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        part, taps = acc[:i1 - i0], grad_cols[i0:i1]
        part.fill(0)
        for ki in range(kernel):
            for kj in range(kernel):
                part[:, ki:ki + stride * out_h:stride,
                     kj:kj + stride * out_w:stride] += taps[..., ki, kj]
        grad_x[i0:i1] = part[:, padding:padding + h,
                             padding:padding + w].transpose(0, 3, 1, 2)
    return grad_x


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple,
    weight: np.ndarray,
    cols: np.ndarray,
    stride: int = 1,
    padding: int = 0,
):
    """Gradients of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    grad_flat = _grad_rows(grad_out)
    grad_weight, grad_bias = _param_grads(grad_flat, weight.shape, cols)
    grad_x = _conv2d_input_grad(grad_flat, x_shape, weight, stride, padding)
    return grad_x, grad_weight, grad_bias


def conv2d_param_backward(grad_out: np.ndarray, weight_shape: tuple,
                          cols: np.ndarray):
    """Weight and bias gradients of :func:`conv2d_forward` without the
    input gradient (for a model's first layer, whose input is the image).

    Returns ``(grad_weight, grad_bias)``.
    """
    return _param_grads(_grad_rows(grad_out), weight_shape, cols)


def maxpool2d_forward(x: np.ndarray, kernel: int, stride: int | None = None):
    """Max pooling. Returns ``(out, argmax)`` with argmax cached for backward."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)

    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return out, argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Route pooled gradients back to the argmax positions."""
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
    index = (nn_idx, cc_idx, rows, cols)
    if stride >= kernel:
        # Disjoint windows: no input position is hit twice.
        grad_x[index] += grad_out
    else:
        np.add.at(grad_x, index, grad_out)
    return grad_x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def one_hot(labels: np.ndarray, num_classes: int,
            dtype=np.float64) -> np.ndarray:
    """Integer labels -> one-hot float matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
