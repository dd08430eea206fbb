"""Layer-level tests: shapes, gradient checks, BN behaviour, quant STE,
and the channel-major layers against their textbook and NCHW
references. 4-D activations are ``(C, N, H, W)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    BatchNorm,
    Conv2D,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    QuantConv2D,
    QuantLinear,
    QuantReLU,
    QuantSpec,
    ReLU,
)
from tests.nn import reference_kernels as ref


def numerical_grad(layer, x, grad_out, param=None, idx=None, eps=1e-6):
    """Central-difference gradient of sum(out * grad_out)."""
    def value():
        return (layer.forward(x) * grad_out).sum()

    if param is None:  # input gradient
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        return ((layer.forward(xp) * grad_out).sum()
                - (layer.forward(xm) * grad_out).sum()) / (2 * eps)
    orig = layer.params[param][idx]
    layer.params[param][idx] = orig + eps
    plus = value()
    layer.params[param][idx] = orig - eps
    minus = value()
    layer.params[param][idx] = orig
    return (plus - minus) / (2 * eps)


class TestConv2D:
    def test_shapes(self):
        conv = Conv2D(3, 8, kernel_size=3)
        assert conv.output_shape((3, 32, 32)) == (8, 30, 30)
        x = np.zeros((3, 2, 32, 32))
        assert conv.forward(x).shape == (8, 2, 30, 30)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(3, 8)
        with pytest.raises(ValueError):
            conv.output_shape((4, 32, 32))

    def test_macs(self):
        conv = Conv2D(3, 8, kernel_size=3)
        assert conv.macs((3, 32, 32)) == 8 * 30 * 30 * 9 * 3

    def test_weight_gradient(self):
        rng = np.random.default_rng(0)
        conv = Conv2D(2, 3, kernel_size=3, rng=rng)
        x = rng.normal(size=(2, 3, 6, 6))
        out = conv.forward(x)
        grad_out = rng.normal(size=out.shape)
        conv.zero_grad()
        gx = conv.backward(grad_out)
        for idx in [(0, 0, 0, 0), (2, 1, 2, 1)]:
            num = numerical_grad(conv, x, grad_out, "weight", idx)
            assert abs(num - conv.grads["weight"][idx]) < 1e-4
        num = numerical_grad(conv, x, grad_out, idx=(0, 1, 3, 3))
        assert abs(num - gx[0, 1, 3, 3]) < 1e-4

    def test_param_count(self):
        conv = Conv2D(3, 8, kernel_size=3)
        assert conv.param_count() == 8 * 3 * 9 + 8

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            Conv2D(0, 4)

    @pytest.mark.parametrize("kwargs", [
        {"kernel_size": 0}, {"kernel_size": -1}, {"stride": 0},
        {"stride": -2}, {"padding": -1},
    ])
    def test_rejects_bad_window(self, kwargs):
        with pytest.raises(ValueError):
            Conv2D(3, 8, **kwargs)

    def test_backward_params_matches_backward(self):
        rng = np.random.default_rng(13)
        a = QuantConv2D(3, 8, padding=1, rng=np.random.default_rng(1))
        b = QuantConv2D(3, 8, padding=1, rng=np.random.default_rng(1))
        x = rng.normal(size=(3, 4, 6, 5))
        grad_out = rng.normal(size=(8, 4, 6, 5))
        for layer in (a, b):
            layer.forward(x)
            layer.zero_grad()
        a.backward(grad_out)
        assert b.backward_params(grad_out) is None
        for name in a.grads:
            assert a.grads[name].tobytes() == b.grads[name].tobytes()


class TestQuantConv2D:
    def test_effective_weight_is_quantized(self):
        conv = QuantConv2D(2, 4, quant=QuantSpec(2, 2),
                           rng=np.random.default_rng(1))
        w = conv.effective_weight()
        assert len(np.unique(w)) <= 3

    def test_shadow_weights_full_precision(self):
        conv = QuantConv2D(2, 4, rng=np.random.default_rng(2))
        assert len(np.unique(conv.params["weight"])) > 3

    def test_backward_updates_shadow(self):
        rng = np.random.default_rng(3)
        conv = QuantConv2D(2, 4, rng=rng)
        x = rng.normal(size=(2, 1, 5, 5))
        out = conv.forward(x)
        conv.zero_grad()
        conv.backward(np.ones_like(out))
        assert np.abs(conv.grads["weight"]).sum() > 0


class TestLinear:
    def test_forward(self):
        lin = Linear(3, 2)
        lin.params["weight"] = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        lin.params["bias"] = np.array([0.5, -0.5])
        out = lin.forward(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out, [[1.5, 1.5]])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        lin = Linear(5, 3, rng=rng)
        x = rng.normal(size=(4, 5))
        out = lin.forward(x)
        grad_out = rng.normal(size=out.shape)
        lin.zero_grad()
        gx = lin.backward(grad_out)
        np.testing.assert_allclose(lin.grads["weight"], grad_out.T @ x)
        np.testing.assert_allclose(lin.grads["bias"], grad_out.sum(axis=0))
        np.testing.assert_allclose(gx, grad_out @ lin.params["weight"])

    def test_output_shape_validation(self):
        lin = Linear(5, 3)
        assert lin.output_shape((5,)) == (3,)
        with pytest.raises(ValueError):
            lin.output_shape((4,))


class TestQuantLinear:
    def test_quantized_effective_weight(self):
        lin = QuantLinear(8, 4, rng=np.random.default_rng(5))
        assert len(np.unique(lin.effective_weight())) <= 3


class TestBatchNorm:
    def test_normalizes_training_batch(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(4)
        x = rng.normal(3.0, 2.0, size=(64, 4))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_4d_axes(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(3)
        x = rng.normal(size=(3, 8, 5, 5))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-7)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm(2, momentum=0.0)  # running stats = last batch
        x = rng.normal(1.0, 2.0, size=(256, 2))
        bn.forward(x)
        bn.eval()
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-2)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        out = bn.forward(x)
        grad_out = rng.normal(size=out.shape)
        bn.zero_grad()
        gx = bn.backward(grad_out)
        eps = 1e-6
        for idx in [(0, 0), (5, 2)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = ((bn.forward(xp) * grad_out).sum()
                   - (bn.forward(xm) * grad_out).sum()) / (2 * eps)
            assert abs(num - gx[idx]) < 1e-4

    def test_fold_scale_shift(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm(4, momentum=0.0)
        x = rng.normal(2.0, 3.0, size=(512, 4))
        bn.forward(x)  # populate running stats
        bn.eval()
        scale, shift = bn.fold_scale_shift()
        np.testing.assert_allclose(bn.forward(x), x * scale + shift,
                                   atol=1e-9)

    @given(batch=st.integers(1, 300), channels=st.integers(2, 40),
           dtype=st.sampled_from([np.float64, np.float32]),
           ties=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_2d_statistics_sum_in_sequence(self, batch, channels, dtype,
                                           ties, seed):
        """An ``(N, C)`` input's batch statistics (``C >= 2``, the FC
        BatchNorms) are byte-equal to sequential sums over the batch, a
        planted ``-0.0`` column included."""
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((batch, channels)) * 3 + 1).astype(dtype)
        if ties:
            x = (rng.integers(-2, 3, x.shape) * 0.3 + 0.1).astype(dtype)
        x[:, rng.integers(channels)] = -0.0
        bn = BatchNorm(channels, momentum=0.0).astype(dtype)
        bn.forward(x)

        def sequential_mean(rows):
            return (np.cumsum(rows, axis=0)[-1] + 0.0) / rows.shape[0]

        mean = sequential_mean(x)
        var = sequential_mean(np.square(x - mean))
        ref.assert_same_bytes(bn.running_mean, mean)
        ref.assert_same_bytes(bn.running_var, var)

    def test_rejects_3d(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 2, 2)))


class TestMaxPool2dLayer:
    def test_shape(self):
        pool = MaxPool2d(2)
        assert pool.output_shape((8, 14, 14)) == (8, 7, 7)

    def test_default_stride_is_kernel(self):
        assert MaxPool2d(3).stride == 3
        assert MaxPool2d(3, stride=1).stride == 1

    @pytest.mark.parametrize("kwargs", [
        {"kernel_size": 0}, {"kernel_size": 2, "stride": 0},
        {"kernel_size": 2, "stride": -1},
    ])
    def test_rejects_bad_window(self, kwargs):
        with pytest.raises(ValueError):
            MaxPool2d(**kwargs)

    def test_roundtrip_grad_shape(self):
        pool = MaxPool2d(2)
        x = np.random.default_rng(11).normal(size=(3, 2, 6, 6))
        out = pool.forward(x)
        grad = pool.backward(np.ones_like(out))
        assert grad.shape == x.shape
        # Each window routes exactly one gradient unit.
        assert grad.sum() == out.size


class TestQuantReLU:
    def test_forward_levels(self):
        act = QuantReLU(QuantSpec(2, 2))
        x = np.linspace(-1, 2, 50)
        out = act.forward(x)
        assert len(np.unique(out)) <= 4

    def test_ste_gradient_window(self):
        act = QuantReLU(QuantSpec(2, 2, act_range=1.0))
        x = np.array([-0.5, 0.5, 1.5])
        act.forward(x)
        grad = act.backward(np.ones(3))
        np.testing.assert_allclose(grad, [0, 1, 0])


class TestStructuralLayers:
    def test_flatten_roundtrip(self):
        f = Flatten()
        x = np.random.default_rng(12).normal(size=(3, 2, 4, 4))
        out = f.forward(x)
        assert out.shape == (2, 48)
        # Each image's features in NCHW (c, h, w) order.
        np.testing.assert_array_equal(out, x.transpose(1, 0, 2, 3).reshape(2, 48))
        back = f.backward(out)
        np.testing.assert_allclose(back, x)
        assert back.flags.c_contiguous
        assert f.output_shape((3, 4, 4)) == (48,)

    def test_identity(self):
        ident = Identity()
        x = np.ones((2, 3))
        np.testing.assert_allclose(ident.forward(x), x)
        np.testing.assert_allclose(ident.backward(x), x)

    def test_relu_layer(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0]])
        np.testing.assert_allclose(relu.forward(x), [[0, 2]])
        np.testing.assert_allclose(relu.backward(np.ones((1, 2))), [[0, 1]])


class TestLayerIdentity:
    """BatchNorm, QuantReLU and the quantized layers' STE: byte-equal to
    the textbook channel-major reference (outputs, input gradients,
    parameter gradients and running statistics), and BatchNorm equal to
    the NCHW reference to rounding."""

    @given(ndim=st.sampled_from([2, 4]), channels=st.integers(1, 33),
           batch=st.integers(1, 64), h=st.integers(1, 7), w=st.integers(1, 7),
           dtype=st.sampled_from([np.float64, np.float32]),
           training=st.booleans(), ties=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_batchnorm(self, ndim, channels, batch, h, w, dtype, training,
                       ties, seed):
        """``ties`` draws inputs from a few levels, as quantized codes
        through ternary weights give them, and plants a ``-0.0`` channel:
        values at their channel's mean and sums of signed zeros."""
        rng = np.random.default_rng(seed)
        shape = (channels, batch, h, w) if ndim == 4 else (batch, channels)
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        if ties:
            x = (rng.integers(-2, 3, shape) * 0.3 + 0.1).astype(dtype)
            x[(slice(None), 0) if ndim == 2 else 0] = -0.0
        grad_out = rng.standard_normal(shape).astype(dtype)
        grad_out[rng.random(shape) < 0.1] = -0.0
        state = (rng.standard_normal(channels), rng.standard_normal(channels),
                 rng.standard_normal(channels), rng.random(channels) + 0.5)
        if ties:  # the -0.0 channel's output then shows x_hat's sign
            state[0][0], state[1][0] = 1.0, -0.0
        new, old, nchw = BatchNorm(channels), BatchNorm(channels), \
            BatchNorm(channels)
        for bn in (new, old, nchw):
            bn.astype(dtype).training = training
            (bn.params["gamma"][:], bn.params["beta"][:], bn.running_mean[:],
             bn.running_var[:]) = state

        out_new = new.forward(x)
        out_old = ref.cm_batchnorm_forward(old, x)
        grad_new = new.backward(grad_out)
        grad_old = ref.cm_batchnorm_backward(old, grad_out)
        ref.assert_same_bytes(out_new, out_old)
        ref.assert_same_bytes(grad_new, grad_old)
        for name in ("gamma", "beta"):
            ref.assert_same_bytes(new.grads[name], old.grads[name])
        ref.assert_same_bytes(new.running_mean, old.running_mean)
        ref.assert_same_bytes(new.running_var, old.running_var)

        # The NCHW formulation reduced channels-last activations (its
        # im2col GEMM's output); its statistics are each channel's row
        # mean too, so the forward pass and running statistics are its
        # bytes.
        out_nchw = ref.batchnorm_forward(
            nchw, ref.as_layout(ref.nchw(x), "nhwc"))
        ref.assert_same_bytes(ref.nchw(out_new).copy(), out_nchw.copy())
        ref.assert_same_bytes(new.running_mean, nchw.running_mean)
        ref.assert_same_bytes(new.running_var, nchw.running_var)
        ref.assert_close(ref.nchw(out_new), out_nchw)
        ref.assert_close(ref.nchw(grad_new),
                         ref.batchnorm_backward(nchw, ref.nchw(grad_out)))
        for name in ("gamma", "beta"):
            ref.assert_close(new.grads[name], nchw.grads[name])
        ref.assert_close(new.running_mean, nchw.running_mean)
        ref.assert_close(new.running_var, nchw.running_var)

    @given(bits=st.integers(1, 4), act_range=st.sampled_from([0.5, 1.0, 3.0]),
           size=st.integers(1, 400), nans=st.integers(0, 3),
           dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_quant_relu(self, bits, act_range, size, nans, dtype, seed):
        """Values at the clip edges and on level midpoints, ``-0.0`` and
        NaN, in inputs and gradients."""
        rng = np.random.default_rng(seed)
        step = act_range / (2 ** bits - 1)
        specials = np.array([0.0, -0.0, act_range, -act_range, 0.5 * step,
                             1.5 * step, act_range + step])
        x = np.where(rng.random(size) < 0.3, rng.choice(specials, size),
                     rng.uniform(-1.5, 1.5, size) * act_range).astype(dtype)
        grad = rng.standard_normal(size).astype(dtype)
        for a in (x, grad):
            a[rng.random(size) < 0.1] = -0.0
            a[rng.integers(0, size, nans)] = np.nan
        x = x.reshape(1, 1, 1, size)
        grad = grad.reshape(x.shape)
        act = QuantReLU(QuantSpec(2, bits, act_range=act_range))
        want_out, want_backward = ref.cm_quant_relu(x, bits, act_range)
        ref.assert_same_bytes(act.forward(x), want_out)
        ref.assert_same_bytes(act.backward(grad), want_backward(grad))

    @given(kind=st.sampled_from(["conv", "linear"]),
           bits=st.integers(1, 4), dtype=st.sampled_from([np.float64,
                                                          np.float32]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_quantized_weight_grad(self, kind, bits, dtype, seed):
        rng = np.random.default_rng(seed)
        quant = QuantSpec(weight_bits=bits)
        if kind == "conv":
            layer = QuantConv2D(3, 8, padding=1, quant=quant, rng=rng)
            x = rng.standard_normal((3, 2, 5, 4))
        else:
            layer = QuantLinear(12, 8, quant=quant, rng=rng)
            x = rng.standard_normal((5, 12))
        layer.astype(dtype)
        x = x.astype(dtype)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        layer.zero_grad()
        layer.backward(grad_out)
        got = layer.grads["weight"].copy()
        layer.zero_grad()
        layer._weight_grad = ref.quant_weight_grad.__get__(layer)
        layer.forward(x)  # backward consumed the first pass's scratch
        layer.backward(grad_out)
        ref.assert_same_bytes(got, layer.grads["weight"])
