"""NumPy deep-learning substrate (PyTorch/Brevitas substitute).

Provides layers, quantization-aware training, early-exit branched models,
losses, optimizers, and training loops — everything the AdaPEx design-time
flow needs to train CNV-W2A2-style models without external frameworks.
"""

from .functional import softmax, log_softmax, one_hot
from .graph import BranchedModel, ExitDecision, Sequential
from .layers import (
    BatchNorm,
    Conv2D,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    QuantConv2D,
    QuantLinear,
    QuantReLU,
    ReLU,
)
from .loss import CrossEntropyLoss, JointLoss, cross_entropy
from .optim import SGD, Adam, StepDecay
from .quant import (
    PRECISION_SPECS,
    QuantSpec,
    post_training_quantize,
    quantize_activations,
    quantize_weights,
)
from .serialize import load_state_arrays, state_arrays
from .trainer import (
    TrainConfig,
    TrainHistory,
    Trainer,
    cascade_sweep,
    evaluate_cascade,
    evaluate_exits,
    exit_scores,
)

__all__ = [
    "softmax", "log_softmax", "one_hot",
    "BranchedModel", "ExitDecision", "Sequential",
    "BatchNorm", "Conv2D", "Flatten", "Identity", "Linear", "MaxPool2d",
    "QuantConv2D", "QuantLinear", "QuantReLU", "ReLU",
    "CrossEntropyLoss", "JointLoss", "cross_entropy",
    "SGD", "Adam", "StepDecay",
    "PRECISION_SPECS", "QuantSpec", "post_training_quantize",
    "quantize_activations", "quantize_weights",
    "state_arrays", "load_state_arrays",
    "TrainConfig", "TrainHistory", "Trainer", "cascade_sweep",
    "evaluate_cascade", "evaluate_exits", "exit_scores",
]
