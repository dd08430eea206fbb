"""BranchedModel structure, forward/backward, cascading, serialization."""

import numpy as np
import pytest

from repro.nn import BranchedModel, Linear, ReLU, Sequential
from repro.nn.layers import Flatten


def tiny_branched(num_classes=4, seed=0):
    """2-segment dense model with one early exit, on flat 8-dim inputs."""
    rng = np.random.default_rng(seed)
    seg0 = Sequential([Linear(8, 16, rng=rng, name="s0l0"), ReLU()])
    seg1 = Sequential([Linear(16, num_classes, rng=rng, name="s1l0")])
    exit0 = Sequential([Linear(16, num_classes, rng=rng, name="e0l0")])
    return BranchedModel([seg0, seg1], {0: exit0}, input_shape=(8,))


class TestStructure:
    def test_num_exits(self):
        assert tiny_branched().num_exits == 2

    def test_no_exit_model(self):
        seg = Sequential([Linear(8, 4)])
        model = BranchedModel([seg], input_shape=(8,))
        assert model.num_exits == 1

    def test_rejects_exit_after_last_segment(self):
        seg0 = Sequential([Linear(8, 8)])
        seg1 = Sequential([Linear(8, 4)])
        with pytest.raises(ValueError):
            BranchedModel([seg0, seg1], {1: Sequential([Linear(4, 4)])},
                          input_shape=(8,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BranchedModel([], input_shape=(8,))

    def test_param_count(self):
        model = tiny_branched()
        expected = (8 * 16 + 16) + (16 * 4 + 4) + (16 * 4 + 4)
        assert model.param_count() == expected


class TestForwardBackward:
    def test_forward_output_order(self):
        model = tiny_branched()
        outs = model.forward(np.zeros((3, 8)))
        assert len(outs) == 2
        assert all(o.shape == (3, 4) for o in outs)

    def test_forward_validates_shape(self):
        model = tiny_branched()
        with pytest.raises(ValueError):
            model.forward(np.zeros((3, 7)))

    def test_backward_requires_all_grads(self):
        model = tiny_branched()
        model.forward(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            model.backward([np.zeros((2, 4))])

    def test_gradients_flow_to_shared_segment(self):
        rng = np.random.default_rng(1)
        model = tiny_branched()
        x = rng.normal(size=(4, 8))
        outs = model.forward(x)
        model.zero_grad()
        grads = [rng.normal(size=o.shape) for o in outs]
        model.backward(grads)
        shared = model.segments[0].layers[0]
        assert np.abs(shared.grads["weight"]).sum() > 0

    def test_branch_gradient_sums(self):
        """Shared-segment gradient = exit-path grad + backbone-path grad."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        g0 = rng.normal(size=(4, 4))
        g1 = rng.normal(size=(4, 4))
        zero = np.zeros_like(g0)
        grads = {}
        for name, pair in {"both": (g0, g1), "exit": (g0, zero),
                           "final": (zero, g1)}.items():
            model = tiny_branched(seed=7)
            model.forward(x)
            model.zero_grad()
            model.backward(list(pair))
            grads[name] = model.segments[0].layers[0].grads["weight"].copy()
        np.testing.assert_allclose(grads["both"],
                                   grads["exit"] + grads["final"],
                                   atol=1e-10)

    def test_backward_skips_the_input_gradient(self, monkeypatch):
        """The first layer accumulates its parameter gradients only;
        every other layer still back-propagates."""
        rng = np.random.default_rng(3)
        model = tiny_branched()
        outs = model.forward(rng.normal(size=(4, 8)))
        model.zero_grad()
        first = model.segments[0].layers[0]
        monkeypatch.setattr(first, "backward", None)  # must not be called
        assert model.backward([rng.normal(size=o.shape) for o in outs]) is None
        assert all(np.abs(layer.grads["weight"]).sum() > 0
                   for layer in model.all_layers() if layer.params)


class TestPredict:
    def test_threshold_zero_all_first_exit(self):
        model = tiny_branched()
        model.eval()
        decision = model.predict(np.random.default_rng(3).normal(size=(10, 8)),
                                 confidence_threshold=0.0)
        assert (decision.exit_taken == 0).all()

    def test_threshold_one_all_final(self):
        model = tiny_branched()
        model.eval()
        x = np.random.default_rng(4).normal(size=(10, 8))
        decision = model.predict(x, confidence_threshold=1.0)
        # Only fully saturated softmaxes could exit early at threshold 1.
        assert (decision.exit_taken == 1).sum() >= 8

    def test_rejects_bad_threshold(self):
        model = tiny_branched()
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 8)), confidence_threshold=1.5)

    def test_exit_fractions_sum_to_one(self):
        model = tiny_branched()
        model.eval()
        d = model.predict(np.random.default_rng(5).normal(size=(20, 8)), 0.5)
        fracs = d.exit_fractions(model.num_exits)
        assert np.isclose(fracs.sum(), 1.0)

    def test_monotone_exit_rates_in_threshold(self):
        """Raising the threshold can only push samples to later exits."""
        model = tiny_branched(seed=11)
        model.eval()
        x = np.random.default_rng(6).normal(size=(50, 8))
        early = [model.predict(x, ct).exit_fractions(2)[0]
                 for ct in (0.0, 0.3, 0.6, 0.9, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(early, early[1:]))


class TestSerialization:
    def test_state_dict_roundtrip(self):
        model = tiny_branched(seed=1)
        other = tiny_branched(seed=2)
        x = np.random.default_rng(7).normal(size=(3, 8))
        other.load_state_dict(model.state_dict())
        for a, b in zip(model.forward(x), other.forward(x)):
            np.testing.assert_allclose(a, b)

    def test_clone_is_independent(self):
        model = tiny_branched()
        clone = model.clone()
        clone.segments[0].layers[0].params["weight"][:] = 0.0
        assert np.abs(model.segments[0].layers[0].params["weight"]).sum() > 0


class TestCostModel:
    def test_exit_macs_order(self, tiny_cnv):
        macs = tiny_cnv.exit_macs()
        assert len(macs) == tiny_cnv.num_exits
        # Reaching a deeper exit must never cost fewer backbone MACs than
        # the shallow exit's backbone share.
        assert macs[-1] > 0

    def test_segment_output_shapes(self, tiny_cnv):
        shapes = tiny_cnv.segment_output_shapes()
        assert len(shapes) == len(tiny_cnv.segments)
        assert shapes[-1] == tiny_cnv.output_shape()
