"""Training and evaluation loops for early-exit models.

The :class:`Trainer` implements the paper's training procedure: all exits
are optimized simultaneously under the BranchyNet joint loss, with an
optional step-decay learning-rate schedule. Evaluation utilities report
per-exit accuracy and confidence-thresholded cascade accuracy, which the
design-time Library Generator records into the Library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import TrainingDivergedError
from .graph import BranchedModel
from .loss import JointLoss

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "exit_scores",
           "evaluate_exits", "evaluate_cascade", "cascade_sweep"]


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 5
    batch_size: int = 64
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay_gamma: float = 0.1
    lr_decay_epochs: int | None = None  # default: half the epoch budget
    optimizer: str = "adam"  # "adam" | "sgd"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainHistory:
    """Per-epoch traces collected while training."""

    joint_loss: list = field(default_factory=list)
    exit_losses: list = field(default_factory=list)  # list of tuples per epoch
    train_accuracy: list = field(default_factory=list)  # final-exit accuracy


class Trainer:
    """Joint-loss trainer for :class:`BranchedModel`."""

    def __init__(self, model: BranchedModel, config: TrainConfig | None = None,
                 joint_loss: JointLoss | None = None):
        self.model = model
        self.config = config or TrainConfig()
        self.joint_loss = joint_loss or JointLoss.paper_default(model.num_exits)
        if len(self.joint_loss.exit_weights) != model.num_exits:
            raise ValueError(
                "joint loss weight count must match the model's exit count"
            )

    def _make_optimizer(self):
        from .optim import SGD, Adam, StepDecay

        layers = list(self.model.all_layers())
        if self.config.optimizer == "adam":
            opt = Adam(layers, lr=self.config.lr,
                       weight_decay=self.config.weight_decay)
        else:
            opt = SGD(layers, lr=self.config.lr, momentum=self.config.momentum,
                      weight_decay=self.config.weight_decay)
        step = self.config.lr_decay_epochs or max(self.config.epochs // 2, 1)
        sched = StepDecay(opt, step_epochs=step, gamma=self.config.lr_decay_gamma)
        return opt, sched

    def fit(self, images: np.ndarray, labels: np.ndarray,
            augment=None) -> TrainHistory:
        """Train on ``(N, C, H, W)`` images with integer labels.

        ``augment`` is an optional callable ``(batch_images, rng) -> images``
        applied per batch (see :mod:`repro.data.augment`).
        """
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels must align")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        opt, sched = self._make_optimizer()
        history = TrainHistory()
        n = images.shape[0]

        self.model.train()
        for epoch in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            epoch_loss = 0.0
            epoch_exit_losses = np.zeros(self.model.num_exits)
            correct = 0
            batches = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb = images[idx]
                yb = labels[idx]
                if augment is not None:
                    xb = augment(xb, rng)
                opt.zero_grad()
                outputs = self.model.forward(xb)
                loss, grads, per_exit = self.joint_loss(outputs, yb)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite joint loss ({loss!r}) at epoch "
                        f"{epoch}, batch {batches} — training diverged")
                self.model.backward(grads)
                opt.step()
                epoch_loss += loss
                epoch_exit_losses += np.array(per_exit)
                correct += int((outputs[-1].argmax(axis=1) == yb).sum())
                batches += 1
            sched.epoch_end(epoch)
            history.joint_loss.append(epoch_loss / max(batches, 1))
            history.exit_losses.append(tuple(epoch_exit_losses / max(batches, 1)))
            history.train_accuracy.append(correct / max(n, 1))
        self.model.eval()
        return history


#: Images per forward pass of the evaluators below.
EVAL_BATCH = 256


def _batched(images: np.ndarray, batch_size: int):
    for start in range(0, images.shape[0], batch_size):
        yield start, images[start:start + batch_size]


def exit_scores(model, images: np.ndarray, labels: np.ndarray,
                batch_size: int = EVAL_BATCH) -> tuple[np.ndarray, np.ndarray]:
    """One batched forward sweep shared by every cascade evaluator.

    ``model`` is anything exposing ``eval()``, ``forward(x) -> [logits]``
    and ``num_exits`` — a :class:`BranchedModel` or a compiled
    :class:`~repro.ir.engine.ExecutionPlan`. Returns ``(top_probs,
    correct)``: the ``(N, num_exits)`` top-1 softmax confidence per exit
    and whether each exit's prediction is correct. A model with
    ``release_caches`` drops the backward scratch each batch's forward
    pass left (a 256-image batch on the quick CNV: ~289 MB).
    """
    from .functional import softmax as _softmax

    model.eval()
    release = getattr(model, "release_caches", None)
    n = images.shape[0]
    num_exits = model.num_exits
    top_probs = np.zeros((n, num_exits))
    correct = np.zeros((n, num_exits), dtype=bool)
    for start, xb in _batched(images, batch_size):
        yb = labels[start:start + xb.shape[0]]
        outputs = model.forward(xb)
        if release is not None:
            release()
        for e, logits in enumerate(outputs):
            probs = _softmax(logits, axis=1)
            top_probs[start:start + xb.shape[0], e] = probs.max(axis=1)
            correct[start:start + xb.shape[0], e] = \
                probs.argmax(axis=1) == yb
    return top_probs, correct


def _cascade_take(top_probs: np.ndarray, confidence_threshold: float) -> np.ndarray:
    """Index of the exit each sample takes: the first exit whose
    confidence reaches the threshold (the final exit accepts
    unconditionally)."""
    if not 0.0 <= confidence_threshold <= 1.0:
        raise ValueError("thresholds must be within [0, 1]")
    accept = top_probs >= confidence_threshold
    accept[:, -1] = True
    return accept.argmax(axis=1)


def evaluate_exits(model, images: np.ndarray, labels: np.ndarray,
                   batch_size: int = EVAL_BATCH) -> list[float]:
    """TOP-1 accuracy of every exit head independently (no cascading)."""
    _, correct = exit_scores(model, images, labels, batch_size)
    return list(correct.sum(axis=0) / max(images.shape[0], 1))


def cascade_sweep(model, images: np.ndarray,
                  labels: np.ndarray, thresholds,
                  batch_size: int = EVAL_BATCH) -> list[dict]:
    """Cascade statistics for many confidence thresholds from ONE forward.

    The expensive part of characterizing a model over the paper's 21
    confidence thresholds is the forward pass; the thresholding itself is
    pure arithmetic on the cached :func:`exit_scores`. Returns one dict
    per threshold with ``confidence_threshold``, ``accuracy`` and
    ``exit_rates`` keys (same semantics as :func:`evaluate_cascade`).
    """
    top_probs, correct = exit_scores(model, images, labels, batch_size)
    n, num_exits = top_probs.shape
    results = []
    for ct in thresholds:
        taken = _cascade_take(top_probs, ct)
        hits = correct[np.arange(n), taken]
        rates = np.bincount(taken, minlength=num_exits) / max(n, 1)
        results.append({
            "confidence_threshold": float(ct),
            "accuracy": float(hits.mean()) if n else 0.0,
            "exit_rates": tuple(float(r) for r in rates),
        })
    return results


def evaluate_cascade(model, images: np.ndarray,
                     labels: np.ndarray, confidence_threshold: float,
                     batch_size: int = EVAL_BATCH) -> dict:
    """Cascade accuracy and exit statistics under one confidence threshold.

    Returns a dict with ``accuracy`` (TOP-1 of the cascade), ``exit_rates``
    (fraction classified at each exit), and ``per_exit_accuracy``
    (accuracy of the samples that took each exit; NaN if none did).
    """
    top_probs, correct = exit_scores(model, images, labels, batch_size)
    n, num_exits = top_probs.shape
    taken = _cascade_take(top_probs, confidence_threshold)
    hits = correct[np.arange(n), taken]
    exit_counts = np.bincount(taken, minlength=num_exits).astype(np.float64)
    exit_correct = np.bincount(taken[hits], minlength=num_exits).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_exit_acc = exit_correct / exit_counts
    return {
        "accuracy": float(hits.sum()) / max(n, 1),
        "exit_rates": exit_counts / max(n, 1),
        "per_exit_accuracy": per_exit_acc,
    }
