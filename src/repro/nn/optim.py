"""Optimizers and learning-rate schedules.

The paper retrains pruned models for 40 epochs with lr=0.001 and a decay
of 0.1; :class:`StepDecay` reproduces that schedule shape. Optimizers
operate on the layer objects directly (their ``params``/``grads`` dicts),
so a single optimizer instance can drive a whole :class:`BranchedModel`.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer

__all__ = ["Optimizer", "SGD", "Adam", "StepDecay"]


class Optimizer:
    """Base optimizer over a list of layers."""

    def __init__(self, layers: list[Layer], lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.layers = list(layers)
        self.lr = lr

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _iter_params(self):
        for li, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                yield (li, name), param, layer.grads[name]


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, layers, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(layers, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict = {}

    def step(self) -> None:
        for key, param, grad in self._iter_params():
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            if self.momentum:
                v = self._velocity.get(key)
                if v is None:
                    v = np.zeros_like(param)
                v = self.momentum * v - self.lr * grad
                self._velocity[key] = v
                param += v
            else:
                param -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(self, layers, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(layers, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1 - b1 ** self._t
        bias2 = 1 - b2 ** self._t
        for key, param, grad in self._iter_params():
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param)
                v = np.zeros_like(param)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            self._m[key] = m
            self._v[key] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepDecay:
    """Multiply the lr by ``gamma`` every ``step_epochs`` epochs.

    The paper uses lr=0.001 with decay 0.1; a ``step_epochs`` equal to
    roughly half the epoch budget reproduces that schedule shape.
    """

    def __init__(self, optimizer: Optimizer, step_epochs: int, gamma: float = 0.1,
                 min_lr: float = 1e-7):
        if step_epochs < 1:
            raise ValueError("step_epochs must be >= 1")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.optimizer = optimizer
        self.step_epochs = step_epochs
        self.gamma = gamma
        self.min_lr = min_lr

    def epoch_end(self, epoch: int) -> None:
        """Call after finishing epoch number ``epoch`` (0-based)."""
        if (epoch + 1) % self.step_epochs == 0:
            self.optimizer.lr = max(self.optimizer.lr * self.gamma, self.min_lr)
