"""Model containers: sequential stacks and early-exit branched models.

:class:`BranchedModel` is the central structure of the reproduction. It
mirrors the paper's Figure 2/3: a *backbone* split into segments, with an
optional *exit branch* hanging off the end of each non-final segment. The
forward pass returns one logit vector per exit (early exits first, final
backbone exit last), enabling both BranchyNet-style joint training and
confidence-thresholded cascade inference.
"""

from __future__ import annotations

import copy

import numpy as np

from .functional import softmax
from .layers import Layer

__all__ = ["Sequential", "BranchedModel", "ExitDecision"]


class Sequential:
    """A plain ordered stack of layers."""

    def __init__(self, layers: list[Layer] | None = None, name: str = ""):
        self.layers: list[Layer] = list(layers or [])
        self.name = name

    def append(self, layer: Layer) -> None:
        self.layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def output_shape(self, input_shape: tuple) -> tuple:
        for layer in self.layers:
            input_shape = layer.output_shape(input_shape)
        return input_shape

    def macs(self, input_shape: tuple) -> int:
        total = 0
        for layer in self.layers:
            total += layer.macs(input_shape)
            input_shape = layer.output_shape(input_shape)
        return total

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    def train(self) -> None:
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        for layer in self.layers:
            layer.eval()

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


class ExitDecision:
    """Result of cascade inference for one batch.

    Attributes
    ----------
    predictions:
        ``(N,)`` predicted class per sample.
    exit_taken:
        ``(N,)`` index of the exit that classified each sample
        (0 = first early exit, ..., ``num_exits - 1`` = final exit).
    confidences:
        ``(N,)`` softmax confidence of the accepted output.
    """

    def __init__(self, predictions: np.ndarray, exit_taken: np.ndarray,
                 confidences: np.ndarray):
        self.predictions = predictions
        self.exit_taken = exit_taken
        self.confidences = confidences

    def exit_fractions(self, num_exits: int) -> np.ndarray:
        """Fraction of samples classified at each exit."""
        counts = np.bincount(self.exit_taken, minlength=num_exits)
        return counts / max(len(self.exit_taken), 1)


class BranchedModel:
    """Backbone segments with optional early-exit branches.

    Parameters
    ----------
    segments:
        Ordered backbone pieces; the output of the last segment is the
        final (backbone) logits.
    exits:
        Mapping ``segment_index -> Sequential`` attaching an exit branch to
        the output of that segment. Keys must be < ``len(segments) - 1``.
    input_shape:
        Per-sample input shape, e.g. ``(3, 32, 32)``.
    """

    def __init__(
        self,
        segments: list[Sequential],
        exits: dict[int, Sequential] | None = None,
        input_shape: tuple = (3, 32, 32),
        name: str = "model",
    ):
        if not segments:
            raise ValueError("need at least one backbone segment")
        exits = dict(exits or {})
        for idx in exits:
            if not 0 <= idx < len(segments) - 1:
                raise ValueError(
                    f"exit index {idx} out of range for {len(segments)} segments "
                    "(the final segment already ends in the backbone exit)"
                )
        self.segments = segments
        self.exits = dict(sorted(exits.items()))
        self.input_shape = tuple(input_shape)
        self.name = name

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_exits(self) -> int:
        """Total number of exits including the final backbone exit."""
        return len(self.exits) + 1

    @property
    def exit_segment_indices(self) -> list[int]:
        return list(self.exits.keys())

    def all_layers(self):
        """Iterate over every layer (backbone then exits, in order)."""
        for seg in self.segments:
            yield from seg.layers
        for idx in self.exits:
            yield from self.exits[idx].layers

    def backbone_layers(self):
        for seg in self.segments:
            yield from seg.layers

    def exit_layers(self):
        for idx in self.exits:
            yield from self.exits[idx].layers

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.all_layers())

    def train(self) -> None:
        for layer in self.all_layers():
            layer.train()

    def eval(self) -> None:
        for layer in self.all_layers():
            layer.eval()

    def zero_grad(self) -> None:
        for layer in self.all_layers():
            layer.zero_grad()

    def release_caches(self) -> None:
        """Drop every layer's backward scratch: the convolutions' im2col
        columns, BatchNorm's ``x_hat`` rows, pooling argmax and STE masks
        of the last batch. :meth:`backward` already consumes what a
        training step's forward pass left, so this matters only after
        forward-only passes (an inference batch of 256 images on the
        quick CNV leaves ~244 MB of columns)."""
        for layer in self.all_layers():
            layer._cache = None

    def clone(self) -> "BranchedModel":
        """Deep copy of the parameters and state (weights, BatchNorm
        statistics) — used by the pruning sweep. Layers' backward scratch
        is not copied."""
        return copy.deepcopy(self)

    def astype(self, dtype) -> "BranchedModel":
        """Cast every layer's parameters/state to ``dtype`` in place.

        This is the compute-dtype policy switch: a ``float32`` model
        roughly doubles BLAS throughput at a small accuracy delta; the
        ``float64`` default keeps results bit-stable with the golden
        traces. Inputs are cast per batch by the trainer/eval helpers.
        """
        for layer in self.all_layers():
            layer.astype(dtype)
        return self

    @property
    def param_dtype(self):
        """Dtype of the model parameters (the compute dtype)."""
        for layer in self.all_layers():
            if layer.params:
                return layer.param_dtype
        return np.dtype(np.float64)

    # ------------------------------------------------------------------
    # shapes / cost
    # ------------------------------------------------------------------
    def segment_output_shapes(self) -> list[tuple]:
        shapes = []
        shape = self.input_shape
        for seg in self.segments:
            shape = seg.output_shape(shape)
            shapes.append(shape)
        return shapes

    def output_shape(self) -> tuple:
        return self.segment_output_shapes()[-1]

    def exit_macs(self) -> list[int]:
        """MACs needed to reach each exit (cumulative backbone + branch).

        Ordered like forward(): early exits first, final exit last. This is
        the quantity the performance/energy models consume.
        """
        shapes = [self.input_shape] + self.segment_output_shapes()
        cumulative = 0
        per_exit = []
        for i, seg in enumerate(self.segments):
            cumulative += seg.macs(shapes[i])
            if i in self.exits:
                branch = self.exits[i].macs(shapes[i + 1])
                per_exit.append(cumulative + branch)
        per_exit.append(cumulative)
        return per_exit

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Run all paths; returns logits per exit (early first, final last).

        ``x`` is a batch in the model's input layout, ``(N, C, H, W)``
        images for a CNN. They are transposed once into the layers'
        channel-major ``(C, N, H, W)`` layout (see :mod:`.layers`); the
        logits are ``(N, classes)``.
        """
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input shape (N, {self.input_shape}), got {x.shape}"
            )
        outputs = []
        # Match the model's compute dtype so a float32 model is not
        # silently promoted back to float64 by float64 input batches.
        if x.ndim == 4:
            x = x.transpose(1, 0, 2, 3)
        h = np.ascontiguousarray(x, dtype=self.param_dtype)
        for i, seg in enumerate(self.segments):
            h = seg.forward(h)
            if i in self.exits:
                outputs.append(self.exits[i].forward(h))
        outputs.append(h)
        return outputs

    def backward(self, exit_grads: list[np.ndarray]) -> None:
        """Back-propagate one gradient per exit (same order as forward),
        accumulating every layer's parameter gradients.

        The gradient with respect to the input images is not computed:
        the first layer accumulates its parameter gradients only.
        """
        if len(exit_grads) != self.num_exits:
            raise ValueError(
                f"expected {self.num_exits} exit gradients, got {len(exit_grads)}"
            )
        early_grads = dict(zip(self.exits.keys(), exit_grads[:-1]))
        grad = exit_grads[-1]
        for i in range(len(self.segments) - 1, -1, -1):
            if i in early_grads:
                grad = grad + self.exits[i].backward(early_grads[i])
            if i > 0:
                grad = self.segments[i].backward(grad)
        layers = self.segments[0].layers
        for layer in layers[:0:-1]:
            grad = layer.backward(grad)
        layers[0].backward_params(grad)  # the input images need no gradient

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, confidence_threshold: float) -> ExitDecision:
        """Cascade inference with a confidence threshold in ``[0, 1]``.

        A sample takes the first exit whose softmax top-1 probability
        reaches the threshold; otherwise it proceeds to the final exit.
        This matches the paper's runtime semantics: the threshold is a knob
        from 0 (everything exits at the first branch) to 1 (nothing exits
        early, short of a fully confident output).
        """
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be within [0, 1]")
        outputs = self.forward(x)
        n = x.shape[0]
        predictions = np.zeros(n, dtype=np.int64)
        exit_taken = np.full(n, self.num_exits - 1, dtype=np.int64)
        confidences = np.zeros(n, dtype=np.float64)
        undecided = np.ones(n, dtype=bool)

        for exit_idx, logits in enumerate(outputs):
            probs = softmax(logits, axis=1)
            top = probs.max(axis=1)
            cls = probs.argmax(axis=1)
            last = exit_idx == self.num_exits - 1
            accept = undecided & ((top >= confidence_threshold) | last)
            predictions[accept] = cls[accept]
            confidences[accept] = top[accept]
            exit_taken[accept] = exit_idx
            undecided &= ~accept
            if not undecided.any():
                break
        return ExitDecision(predictions, exit_taken, confidences)

    # ------------------------------------------------------------------
    # (de)serialization of weights
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for si, seg in enumerate(self.segments):
            for li, layer in enumerate(seg.layers):
                for pname, val in layer.params.items():
                    state[f"seg{si}.l{li}.{pname}"] = val.copy()
        for ei, branch in self.exits.items():
            for li, layer in enumerate(branch.layers):
                for pname, val in layer.params.items():
                    state[f"exit{ei}.l{li}.{pname}"] = val.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for si, seg in enumerate(self.segments):
            for li, layer in enumerate(seg.layers):
                for pname in layer.params:
                    key = f"seg{si}.l{li}.{pname}"
                    layer.params[pname] = state[key].copy()
        for ei, branch in self.exits.items():
            for li, layer in enumerate(branch.layers):
                for pname in layer.params:
                    key = f"exit{ei}.l{li}.{pname}"
                    layer.params[pname] = state[key].copy()
