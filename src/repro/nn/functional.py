"""Low-level numerical kernels for the NumPy neural-network substrate.

Two layouts live here.

*Training* (the ``*_cm`` kernels) works channel-major: every 4-D
activation and gradient inside :mod:`repro.nn` is a C-contiguous
``(C, N, H, W)`` array, so each channel is one contiguous row. A
convolution is one GEMM ``W(O, C*k*k) @ cols(C*k*k, N*oh*ow)`` over a
tap-major im2col whose output already is the next layer's channel-major
input; its backward pass is the two GEMMs ``g @ cols.T`` (weights) and
``W.T @ g`` (input), plus one add per kernel tap that scatters the
latter's rows back into the image; they are two kernels, so a layer can
free its columns after the first. BatchNorm reduces and scales
contiguous per-channel rows, and pooling and the activations run
elementwise over the same rows. In NCHW memory these passes ran inner
loops only as long as the channel count (8 at quick scale).

*Inference* keeps NCHW: :func:`im2col_into`, :func:`conv2d_forward` and
:func:`maxpool2d_forward` serve the IR's reference executors (the
oracle the compiled engine is checked against) and the engine's im2col.
Exported graphs keep ONNX's NCHW order so their tensors read like
FINN's, and nothing in the IR depends on how training lays out memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "im2col_into",
    "conv2d_forward",
    "maxpool2d_forward",
    "im2col_cm",
    "conv2d_forward_cm",
    "conv2d_param_backward_cm",
    "conv2d_input_backward_cm",
    "maxpool2d_forward_cm",
    "maxpool2d_backward_cm",
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


# ----------------------------------------------------------------------
# NCHW inference kernels (IR executors and engine)
# ----------------------------------------------------------------------
# Elements per chunk of whole images of the (n, C, k, k, oh, ow) scratch
# im2col_into fills, so its transposing second stage reads from cache.
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
    """2-D convolution of an NCHW input (the IR's reference executor).

    Returns ``(out, cols)``: the NCHW output and its im2col matrix.
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


def maxpool2d_forward(x: np.ndarray, kernel: int, stride: int | None = None):
    """Max pooling of an NCHW input (the IR's reference executor).

    Returns ``(out, argmax)``, argmax indexing each flattened window.
    """
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


# ----------------------------------------------------------------------
# channel-major training kernels
# ----------------------------------------------------------------------
def _taps(x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int):
    """``(ki, kj, view)`` for every window tap of a ``(.., .., H, W)``
    array: the ``(.., .., out_h, out_w)`` strided slice tap ``(ki, kj)``
    of each window reads, in (ki, kj) order."""
    for ki in range(kernel):
        for kj in range(kernel):
            yield ki, kj, x[:, :, ki:ki + stride * out_h:stride,
                            kj:kj + stride * out_w:stride]


def im2col_cm(x: np.ndarray, kernel: int, stride: int = 1,
              padding: int = 0) -> np.ndarray:
    """Patch columns of a channel-major ``(C, N, H, W)`` input.

    Returns a C-contiguous ``(C * k * k, N * out_h * out_w)`` array. Row
    ``(c, ki, kj)`` is tap ``(ki, kj)`` of channel ``c`` at every output
    position (image-major, then raster order), matching the weight
    layout ``W.reshape(out_ch, -1)``; it is the strided slice of the
    input that tap reads, so one copy of a tap-major window view fills
    the whole matrix with inner loops along output rows.
    """
    c, n, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)), mode="constant")
    sc, sn, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kernel, kernel, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    cols = np.empty(windows.shape, dtype=x.dtype)
    np.copyto(cols, windows)
    return cols.reshape(c * kernel * kernel, n * out_h * out_w)


def conv2d_forward_cm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
):
    """2-D convolution of a channel-major ``(C, N, H, W)`` input.

    Returns ``(out, cols)``: the ``(C_out, N, out_h, out_w)`` output, one
    GEMM ``W(O, C*k*k) @ cols`` away from the input, and the
    :func:`im2col_cm` matrix ``cols`` the backward pass reads.
    """
    _, n, h, w = x.shape
    out_ch, _, kernel, _ = weight.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = im2col_cm(x, kernel, stride, padding)
    out = weight.reshape(out_ch, -1) @ cols
    if bias is not None:
        out += bias[:, None]
    return out.reshape(out_ch, n, out_h, out_w), cols


def conv2d_param_backward_cm(grad_out: np.ndarray, weight_shape: tuple,
                             cols: np.ndarray):
    """Weight and bias gradients of :func:`conv2d_forward_cm`: the GEMM
    ``g @ cols.T`` and ``g``'s row sums, the only reads of ``cols``.

    Returns ``(grad_weight, grad_bias)``.
    """
    g = np.ascontiguousarray(grad_out).reshape(grad_out.shape[0], -1)
    return (g @ cols.T).reshape(weight_shape), g.sum(axis=1)


def conv2d_input_backward_cm(
    grad_out: np.ndarray,
    x_shape: tuple,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Input gradient of :func:`conv2d_forward_cm`, which needs no
    ``cols``: run it after :func:`conv2d_param_backward_cm` and the
    columns can be freed before its ``W.T @ g`` allocates their size
    again.

    Returns a C-contiguous ``(C, N, H, W)`` array: ``W.T @ g``'s tap
    rows added into a zeroed (padded) image in (ki, kj) order, im2col's
    adjoint.
    """
    c, n, h, w = x_shape
    out_ch, _, kernel, _ = weight.shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    g = np.ascontiguousarray(grad_out).reshape(out_ch, -1)
    grad_cols = (weight.reshape(out_ch, -1).T @ g).reshape(
        c, kernel, kernel, n, out_h, out_w)

    grad_x = np.zeros((c, n, h + 2 * padding, w + 2 * padding),
                      dtype=grad_cols.dtype)
    for ki, kj, part in _taps(grad_x, kernel, stride, out_h, out_w):
        part += grad_cols[:, ki, kj]
    if padding > 0:
        grad_x = np.ascontiguousarray(
            grad_x[:, :, padding:padding + h, padding:padding + w])
    return grad_x


def maxpool2d_forward_cm(x: np.ndarray, kernel: int,
                         stride: int | None = None):
    """Max pooling of a channel-major ``(C, N, H, W)`` input, one pass
    per window tap.

    Returns ``(out, argmax)``: ``argmax`` is each window's first maximal
    tap in (ki, kj) order, or its first NaN, as ``np.argmax`` over the
    flattened window picks it, in the narrowest unsigned type that holds
    ``k*k - 1`` (``uint8`` up to 16x16 windows: it lives as backward
    scratch), and ``out`` that tap's value (so signed zeros and NaN
    payloads pass through).
    """
    stride = kernel if stride is None else stride
    _, _, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    taps = _taps(x, kernel, stride, out_h, out_w)
    _, _, first = next(taps)
    out = first.copy()
    argmax = np.zeros(out.shape,
                      dtype=np.min_scalar_type(kernel * kernel - 1))
    for ki, kj, v in taps:
        # v > out, or v NaN: take it unless out already holds a NaN.
        take = v <= out
        np.logical_not(take, out=take)
        take &= out == out
        np.copyto(out, v, where=take)
        np.copyto(argmax, ki * kernel + kj, where=take)
    return out, argmax


def maxpool2d_backward_cm(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Route pooled gradients back to the argmax positions, added into a
    zeroed ``(C, N, H, W)`` image (so a ``-0.0`` gradient lands as
    ``0.0``). Overlapping windows (``stride < kernel``) accumulate in
    window order through ``np.add.at``."""
    stride = kernel if stride is None else stride
    c, n = x_shape[:2]
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    if stride >= kernel:
        # Disjoint windows: each input position is one tap of one window.
        zero = grad_x.dtype.type(0)
        for ki, kj, part in _taps(grad_x, kernel, stride, out_h, out_w):
            part += np.where(argmax == ki * kernel + kj, grad_out, zero)
        return grad_x
    rows = np.arange(out_h)[:, None] * stride + argmax // kernel
    cols = np.arange(out_w) * stride + argmax % kernel
    index = (np.arange(c)[:, None, None, None],
             np.arange(n)[None, :, None, None], rows, cols)
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
