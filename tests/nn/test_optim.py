"""Optimizers and schedules: convergence on a convex problem, schedule
shapes, validation."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, StepDecay


def quadratic_step(layer, target):
    """One gradient step on ||Wx - t||^2 for fixed x = ones."""
    x = np.ones((1, layer.in_features))
    out = layer.forward(x)
    grad = 2 * (out - target)
    layer.zero_grad()
    layer.backward(grad)
    return float(((out - target) ** 2).sum())


class TestSGD:
    def test_converges(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        target = np.array([[1.0, -1.0]])
        opt = SGD([layer], lr=0.05)
        losses = []
        for _ in range(100):
            losses.append(quadratic_step(layer, target))
            opt.step()
        assert losses[-1] < 1e-3 * losses[0] + 1e-9

    def test_momentum_accelerates_small_lr(self):
        def run(momentum, steps=60):
            layer = Linear(4, 2, rng=np.random.default_rng(1))
            opt = SGD([layer], lr=0.002, momentum=momentum)
            target = np.array([[1.0, -1.0]])
            loss = None
            for _ in range(steps):
                loss = quadratic_step(layer, target)
                opt.step()
            return loss

        # At a deliberately small lr, momentum's effective step is ~10x
        # larger, so it must be meaningfully ahead after few iterations.
        assert run(0.9) < run(0.0)

    def test_momentum_converges(self):
        layer = Linear(4, 2, rng=np.random.default_rng(1))
        opt = SGD([layer], lr=0.01, momentum=0.9)
        target = np.array([[1.0, -1.0]])
        first = quadratic_step(layer, target)
        opt.step()
        for _ in range(120):
            last = quadratic_step(layer, target)
            opt.step()
        assert last < 1e-3 * first + 1e-9

    def test_weight_decay_shrinks_weights(self):
        layer = Linear(4, 2, rng=np.random.default_rng(2))
        opt = SGD([layer], lr=0.1, weight_decay=0.5)
        before = np.abs(layer.params["weight"]).sum()
        layer.zero_grad()
        opt.step()
        assert np.abs(layer.params["weight"]).sum() < before

    def test_validation(self):
        layer = Linear(2, 2)
        with pytest.raises(ValueError):
            SGD([layer], lr=0.0)
        with pytest.raises(ValueError):
            SGD([layer], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges(self):
        layer = Linear(4, 2, rng=np.random.default_rng(3))
        target = np.array([[0.5, 2.0]])
        opt = Adam([layer], lr=0.05)
        losses = []
        for _ in range(150):
            losses.append(quadratic_step(layer, target))
            opt.step()
        assert losses[-1] < 1e-3 * losses[0] + 1e-9

    def test_step_size_bounded_by_lr(self):
        """Adam's per-parameter step is ~lr regardless of grad scale."""
        layer = Linear(2, 1, rng=np.random.default_rng(4))
        opt = Adam([layer], lr=0.1)
        before = layer.params["weight"].copy()
        layer.grads["weight"] = np.array([[1e6, 1e-6]])
        layer.grads["bias"] = np.zeros(1)
        opt.step()
        delta = np.abs(layer.params["weight"] - before)
        assert delta.max() < 0.11


class TestSchedules:
    def test_step_decay(self):
        layer = Linear(2, 2)
        opt = SGD([layer], lr=1.0)
        sched = StepDecay(opt, step_epochs=2, gamma=0.1)
        for epoch in range(4):
            sched.epoch_end(epoch)
        assert np.isclose(opt.lr, 0.01)

    def test_min_lr_floor(self):
        layer = Linear(2, 2)
        opt = SGD([layer], lr=1e-6)
        sched = StepDecay(opt, step_epochs=1, gamma=0.1, min_lr=1e-7)
        for epoch in range(5):
            sched.epoch_end(epoch)
        assert opt.lr == pytest.approx(1e-7)

    def test_validation(self):
        opt = SGD([Linear(2, 2)], lr=0.1)
        with pytest.raises(ValueError):
            StepDecay(opt, step_epochs=0)
        with pytest.raises(ValueError):
            StepDecay(opt, step_epochs=1, gamma=1.5)
