"""Kernel-level tests: convolutions against a per-tap loop, adjointness,
pooling, softmax properties, and the channel-major training kernels
against their textbook and NCHW references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from tests.nn import reference_kernels as ref


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(32, 3, 1, 0) == 30
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(28, 2, 2, 0) == 14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)

    @pytest.mark.parametrize("kernel,stride,padding",
                             [(0, 1, 0), (3, 0, 0), (3, 1, -1)])
    def test_rejects_invalid_window(self, kernel, stride, padding):
        with pytest.raises(ValueError):
            F.conv_output_size(8, kernel, stride, padding)


class TestIm2col:
    def test_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, kernel=3)
        assert cols.shape == (2 * 6 * 6, 3 * 9)

    def test_identity_kernel_1(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 4, 4))
        cols = F.im2col(x, kernel=1)
        # 1x1 windows reproduce the pixels, channel-major per row.
        expected = x.transpose(0, 2, 3, 1).reshape(-1, 2)
        np.testing.assert_allclose(cols, expected)

    def test_stride_and_padding(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = F.im2col(x, kernel=2, stride=2)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[3], [10, 11, 14, 15])

    def test_col2im_adjoint(self):
        """col2im must be the exact adjoint of im2col: <Ax, y> == <x, A'y>."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 7, 7))
        y = rng.normal(size=(2 * 25, 3 * 9))
        ax = F.im2col(x, kernel=3, stride=1, padding=0)
        aty = ref.col2im(y, x.shape, kernel=3, stride=1, padding=0)
        np.testing.assert_allclose((ax * y).sum(), (x * aty).sum(), rtol=1e-10)

    def test_col2im_adjoint_with_padding_stride(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 8, 8))
        out = F.conv_output_size(8, 3, 2, 1)
        y = rng.normal(size=(out * out, 2 * 9))
        ax = F.im2col(x, kernel=3, stride=2, padding=1)
        aty = ref.col2im(y, x.shape, kernel=3, stride=2, padding=1)
        np.testing.assert_allclose((ax * y).sum(), (x * aty).sum(), rtol=1e-10)

    def test_stride_with_padding_values(self):
        # stride 2 + padding 1 on a 3x3 input: the 4 windows are the
        # zero-padded corners.
        x = np.arange(1, 10, dtype=float).reshape(1, 1, 3, 3)
        cols = F.im2col(x, kernel=2, stride=2, padding=1)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[0], [0, 0, 0, 1])
        np.testing.assert_allclose(cols[1], [0, 0, 2, 3])
        np.testing.assert_allclose(cols[2], [0, 4, 0, 7])
        np.testing.assert_allclose(cols[3], [5, 6, 8, 9])

    def test_non_square_input(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 5, 9))
        cols = F.im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (2 * 5 * 9, 3 * 9)
        # Center pixel of each 3x3 window walks the input in raster order.
        centers = cols.reshape(2, 5, 9, 3, 3, 3)[:, :, :, :, 1, 1]
        np.testing.assert_allclose(centers, x.transpose(0, 2, 3, 1))

    @given(st.integers(3, 7), st.integers(3, 9), st.integers(1, 3),
           st.integers(1, 2), st.integers(0, 1), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_col2im_im2col_is_overlap_count(self, h, w, kernel, stride,
                                            padding, seed):
        """col2im(im2col(x)) == x weighted by each pixel's window count."""
        if h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        x = np.random.default_rng(seed).normal(size=(2, 2, h, w))
        back = ref.col2im(F.im2col(x, kernel, stride, padding),
                        x.shape, kernel, stride, padding)
        counts = ref.col2im(F.im2col(np.ones_like(x), kernel, stride, padding),
                          x.shape, kernel, stride, padding)
        assert counts.min() >= 0  # padding-only pixels never appear
        np.testing.assert_allclose(back, x * counts, rtol=1e-10, atol=1e-12)


class TestIm2colFill:
    """The two-stage fill against one copy of the 6-D window view."""

    @given(n=st.integers(1, 5), c=st.integers(1, 6), h=st.integers(1, 12),
           w=st.integers(1, 12), kernel=st.integers(1, 4),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           dtype=st.sampled_from([np.float64, np.float32, np.uint8]),
           layout=ref.LAYOUTS, chunk=st.sampled_from([1, 64, 1 << 15]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_matches_window_view_copy(self, n, c, h, w, kernel, stride,
                                      padding, dtype, layout, chunk, seed):
        if h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        x = np.random.default_rng(seed).normal(size=(n, c, h, w)) * 50
        x = ref.as_layout(np.abs(x).astype(dtype), layout)
        want = ref.im2col(x, kernel, stride, padding)
        # Into a caller's buffer of another dtype (the engine's arena).
        cols = np.full(want.shape, np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(F, "_IM2COL_CHUNK", chunk)
            ref.assert_same_bytes(F.im2col(x, kernel, stride, padding), want)
            out = F.im2col_into(x, kernel, stride, padding, cols)
        assert out is cols
        ref.assert_same_bytes(cols, want.astype(np.float64))

    def test_rejects_wrong_buffer(self):
        x = np.ones((2, 3, 5, 5))
        with pytest.raises(ValueError, match="C-contiguous"):
            F.im2col_into(x, 3, 1, 0, np.empty((27, 18)).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            F.im2col_into(x, 3, 1, 0, np.empty((18, 28)))


class TestConv2d:
    def test_matches_tap_loop(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 10, 10))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride=1, padding=0)
        # Valid cross-correlation, one shifted window per kernel tap.
        ref = np.broadcast_to(b[:, None, None], (2, 4, 8, 8)).copy()
        for i in range(3):
            for j in range(3):
                ref += np.einsum("nchw,oc->nohw",
                                 x[:, :, i:i + 8, j:j + 8], w[:, :, i, j])
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_gradients_numerical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 1, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cols = F.conv2d_forward_cm(x, w, b)
        grad_out = rng.normal(size=out.shape)
        gw, gb = F.conv2d_param_backward_cm(grad_out, w.shape, cols)
        gx = F.conv2d_input_backward_cm(grad_out, x.shape, w)

        def loss(x_, w_, b_):
            o, _ = F.conv2d_forward_cm(x_, w_, b_)
            return (o * grad_out).sum()

        eps = 1e-6
        for idx in [(0, 0, 1, 1), (1, 0, 4, 2)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps)
            assert abs(num - gx[idx]) < 1e-4
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps)
            assert abs(num - gw[idx]) < 1e-4
        bp, bm = b.copy(), b.copy()
        bp[1] += eps
        bm[1] -= eps
        num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps)
        assert abs(num - gb[1]) < 1e-4

    def test_no_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        out, _ = F.conv2d_forward(x, w, None)
        assert out.shape == (1, 2, 2, 2)


class TestMaxPool:
    def test_forward_values(self):
        x = np.array([[[[1, 2, 5, 3],
                        [4, 0, 1, 2],
                        [7, 1, 0, 0],
                        [2, 8, 1, 9.0]]]])
        out, _ = F.maxpool2d_forward(x, kernel=2)
        np.testing.assert_allclose(out[0, 0], [[4, 5], [8, 9]])

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1, 2], [4, 0.0]]]])
        out, argmax = F.maxpool2d_forward_cm(x, kernel=2)
        grad = F.maxpool2d_backward_cm(np.ones_like(out), argmax, x.shape, 2)
        np.testing.assert_allclose(grad[0, 0], [[0, 0], [1, 0]])

    def test_backward_gradient_numerical(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 6, 6))
        out, argmax = F.maxpool2d_forward_cm(x, kernel=2)
        grad_out = rng.normal(size=out.shape)
        gx = F.maxpool2d_backward_cm(grad_out, argmax, x.shape, 2)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (2, 1, 3, 3), (1, 0, 5, 5)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            op, _ = F.maxpool2d_forward_cm(xp, 2)
            om, _ = F.maxpool2d_forward_cm(xm, 2)
            num = ((op - om) * grad_out).sum() / (2 * eps)
            assert abs(num - gx[idx]) < 1e-4

    def test_overlapping_stride(self):
        x = np.random.default_rng(8).normal(size=(1, 1, 5, 5))
        out, _ = F.maxpool2d_forward(x, kernel=3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_rejects_zero_stride(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError):
            F.maxpool2d_forward(x, kernel=2, stride=0)
        with pytest.raises(ValueError):
            F.maxpool2d_forward_cm(x, kernel=2, stride=0)


def _plant(rng, a, zero_frac=0.1, nan_count=0):
    """``a`` with ``-0.0`` at a fraction of its entries and ``nan_count``
    NaNs."""
    a = a.copy()
    a[rng.random(a.shape) < zero_frac] = -0.0
    flat = a.reshape(-1)
    flat[rng.integers(0, flat.size, size=nan_count)] = np.nan
    return a


def _split_conv2d_backward(grad_out, x_shape, weight, cols, stride, padding):
    """``(grad_x, grad_weight, grad_bias)`` from the two kernels
    ``Conv2D.backward`` runs, in its order: the columns' last read, then
    the input gradient without them."""
    grad_weight, grad_bias = F.conv2d_param_backward_cm(grad_out,
                                                        weight.shape, cols)
    grad_x = F.conv2d_input_backward_cm(grad_out, x_shape, weight, stride,
                                        padding)
    return grad_x, grad_weight, grad_bias


class TestKernelIdentity:
    """The ``(C, N, H, W)`` training kernels: byte-equal to the textbook
    channel-major reference (strides included: every result is
    C-contiguous), and equal to the NCHW reference to rounding (GEMM
    shapes differ, so their sums run in another order). The convolution's
    backward pass is two kernels, weights then input, checked together
    against the reference's single one."""

    @given(kernel=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]),
           padding=st.integers(0, 2), in_ch=st.integers(1, 33),
           out_ch=st.integers(1, 33), batch=st.integers(1, 64),
           h=st.integers(1, 9), w=st.integers(1, 9), bias=st.booleans(),
           dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_conv2d_backward(self, kernel, stride, padding, in_ch, out_ch, batch, h,
                    w, bias, dtype, seed):
        if h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = _plant(rng, rng.standard_normal((in_ch, batch, h, w)).astype(dtype))
        weight = rng.standard_normal((out_ch, in_ch, kernel, kernel)).astype(dtype)
        b = rng.standard_normal(out_ch).astype(dtype) if bias else None

        out, cols = F.conv2d_forward_cm(x, weight, b, stride, padding)
        want_out, want_cols = ref.cm_conv2d_forward(x, weight, b, stride,
                                                    padding)
        ref.assert_same_bytes(out, want_out)
        ref.assert_same_bytes(cols, want_cols)
        ref.assert_same_bytes(F.im2col_cm(x, kernel, stride, padding),
                              want_cols)

        grad_out = _plant(rng, rng.standard_normal(out.shape).astype(dtype))
        got = _split_conv2d_backward(grad_out, x.shape, weight, cols, stride,
                                     padding)
        want = ref.cm_conv2d_backward(grad_out, x.shape, weight, cols,
                                      stride, padding)
        for new, old in zip(got, want):
            ref.assert_same_bytes(new, old)

        # The NCHW formulation training used before.
        nchw_out, nchw_cols = F.conv2d_forward(ref.nchw(x), weight, b, stride,
                                               padding)
        ref.assert_close(ref.nchw(out), nchw_out)
        nchw = ref.conv2d_backward(ref.nchw(grad_out), ref.nchw(x).shape,
                                   weight, nchw_cols, stride, padding)
        ref.assert_close(ref.nchw(got[0]), nchw[0])
        for new, old in zip(got[1:], nchw[1:]):
            ref.assert_close(new, old)

    @pytest.mark.parametrize("batch,size,padding,in_ch,out_ch", [
        (1, 3, 0, 8, 8), (1, 3, 0, 16, 33), (1, 3, 0, 32, 257),
        (2, 3, 1, 8, 257), (9, 3, 1, 8, 520), (1, 4, 1, 16, 520),
        (64, 32, 0, 3, 8), (64, 30, 0, 8, 8),
    ])
    def test_conv2d_backward_edge_shapes(self, batch, size, padding, in_ch, out_ch):
        """Single-column GEMMs (one output pixel), output channels beyond
        one GEMM panel, and the quick CNV's first two layers."""
        rng = np.random.default_rng(out_ch + batch)
        for dtype in (np.float64, np.float32):
            x = rng.standard_normal((in_ch, batch, size, size)).astype(dtype)
            weight = rng.standard_normal((out_ch, in_ch, 3, 3)).astype(dtype)
            out, cols = F.conv2d_forward_cm(x, weight, None, 1, padding)
            want_out, _ = ref.cm_conv2d_forward(x, weight, None, 1, padding)
            ref.assert_same_bytes(out, want_out)
            grad_out = rng.standard_normal(out.shape).astype(dtype)
            got = _split_conv2d_backward(grad_out, x.shape, weight, cols, 1,
                                         padding)
            want = ref.cm_conv2d_backward(grad_out, x.shape, weight, cols, 1,
                                          padding)
            for new, old in zip(got, want):
                ref.assert_same_bytes(new, old)

    def test_col2im_adjoint(self):
        """<im2col(x), y> == <x, col2im(y)> in the channel-major order."""
        rng = np.random.default_rng(2)
        for kernel, stride, padding in [(3, 1, 0), (3, 2, 1), (5, 1, 2)]:
            x = rng.normal(size=(3, 2, 7, 8))
            cols = F.im2col_cm(x, kernel, stride, padding)
            y = rng.normal(size=cols.shape)
            aty = ref.cm_col2im(y, x.shape, kernel, stride, padding)
            np.testing.assert_allclose((cols * y).sum(), (x * aty).sum(),
                                       rtol=1e-10)

    @given(kernel=st.integers(1, 4), stride=st.integers(1, 4),
           channels=st.integers(1, 33), batch=st.integers(1, 64),
           h=st.integers(1, 10), w=st.integers(1, 10),
           levels=st.integers(1, 4), nans=st.integers(0, 3),
           dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_maxpool2d_backward(self, kernel, stride, channels, batch, h, w, levels,
                       nans, dtype, seed):
        """Ties (few distinct input levels, ``0.0`` against ``-0.0``),
        overlapping windows (stride < kernel), NaN inputs and signed-zero
        and NaN gradients."""
        if h < kernel or w < kernel:
            return
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(channels, batch, h, w)).astype(dtype)
        x = _plant(rng, x, zero_frac=0.3, nan_count=nans)
        out, argmax = F.maxpool2d_forward_cm(x, kernel, stride)
        want_out, want_argmax = ref.cm_maxpool2d_forward(x, kernel, stride)
        ref.assert_same_bytes(out, want_out)
        np.testing.assert_array_equal(argmax, want_argmax)

        grad_out = _plant(rng, rng.standard_normal(out.shape).astype(dtype),
                          zero_frac=0.2, nan_count=nans)
        got = F.maxpool2d_backward_cm(grad_out, argmax, x.shape, kernel,
                                      stride)
        want = ref.cm_maxpool2d_backward(grad_out, argmax, x.shape, kernel,
                                         stride)
        ref.assert_same_bytes(got, want)

        nchw_out, nchw_argmax = F.maxpool2d_forward(ref.nchw(x), kernel,
                                                    stride)
        ref.assert_same_bytes(np.ascontiguousarray(ref.nchw(out)),
                              np.ascontiguousarray(nchw_out))
        nchw_grad = ref.maxpool2d_backward(ref.nchw(grad_out), nchw_argmax,
                                           ref.nchw(x).shape, kernel, stride)
        ref.assert_close(ref.nchw(got), nchw_grad)


class TestSoftmax:
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_probability_vector(self, logits):
        p = F.softmax(np.array([logits]))
        assert np.all(p >= 0)
        assert np.isclose(p.sum(), 1.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, shift):
        a = F.softmax(np.array([logits]))
        b = F.softmax(np.array([logits]) + shift)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_numerical_stability_large(self):
        p = F.softmax(np.array([[1e4, 1e4 - 1]]))
        assert np.isfinite(p).all()

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(9).normal(size=(4, 7))
        np.testing.assert_allclose(F.log_softmax(x),
                                   np.log(F.softmax(x)), atol=1e-10)


class TestOneHot:
    def test_basic(self):
        oh = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(oh, np.eye(3)[[0, 2, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)


class TestRelu:
    def test_values_and_grad(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(F.relu(x), [0, 0, 2])
        np.testing.assert_allclose(F.relu_grad(x, np.ones(3)), [0, 0, 1])
