"""Prune-then-retrain pipelines (hard and progressive-soft schedules).

The paper prunes each early-exit model at a fixed rate, then retrains it
(40 epochs in the paper; configurable here) before export. This module
wires :func:`repro.pruning.prune_model` to :class:`repro.nn.Trainer` for
each point of the design-time Library Generator's pruning-rate sweep.

Two retraining **schedules** are available:

* ``"hard"`` — the paper's prune-then-retrain: slice the filters out
  once, then retrain the narrow model.
* ``"psfp"`` — progressive soft filter pruning: the full-width model
  trains for the whole budget while, after every epoch, the currently
  weakest filters are zeroed *in place* (weights stay trainable and may
  recover); the zeroed fraction follows an exponential ramp that reaches
  the target rate on the final epoch, after which one hard prune fixes
  the surviving set. Soft-masked training is expressed per-epoch (each
  epoch is its own deterministic :class:`Trainer` run seeded by
  ``seed + epoch``) so a run can be split at any epoch boundary — the
  successive-halving engine relies on this to promote partial-fidelity
  checkpoints without retraining a single epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..nn.graph import BranchedModel
from ..nn.loss import JointLoss
from ..nn.trainer import TrainConfig, Trainer
from .dataflow import LayerFoldConstraint
from .pruner import (PruneReport, _mask_conv_out, _prunable_convs,
                     plan_counts, prune_model)
from .ranking import get_criterion, select_keep_filters

__all__ = ["PruneRetrainResult", "prune_and_retrain", "paper_rate_sweep",
           "SCHEDULES", "psfp_removal_fraction", "soft_prune_epoch",
           "psfp_retrain_epochs", "psfp_prune_retrain"]

#: Valid retraining schedules for the design-time sweep.
SCHEDULES = ("hard", "psfp")

#: Terminal value of the SFP exponential decay: after the final epoch the
#: *remaining* head-room is this fraction of its initial value, which
#: pins the ramp's curvature (the "hoel magic value" of the reference
#: implementation).
PSFP_DECAY_FLOOR = 0.147


@dataclass
class PruneRetrainResult:
    """One pruned, retrained model plus its pruning report."""

    model: BranchedModel
    report: PruneReport
    history: object = None

    @property
    def rate(self) -> float:
        return self.report.rate

    @property
    def achieved_rate(self) -> float:
        return self.report.achieved_rate


def paper_rate_sweep() -> list[float]:
    """The paper's 18 pruning rates: 0 % to 85 % in 5 % steps."""
    return [round(0.05 * i, 2) for i in range(18)]


def prune_and_retrain(
    model: BranchedModel,
    rate: float,
    images: np.ndarray,
    labels: np.ndarray,
    retrain: TrainConfig | None = None,
    constraints: dict[str, LayerFoldConstraint] | None = None,
    prune_exits: bool = True,
    joint_loss: JointLoss | None = None,
    augment=None,
    criterion="l1",
) -> PruneRetrainResult:
    """Prune ``model`` at ``rate`` and retrain the pruned clone."""
    pruned, report = prune_model(model, rate, constraints=constraints,
                                 prune_exits=prune_exits,
                                 criterion=criterion)
    history = None
    if retrain is not None and retrain.epochs > 0 and rate > 0:
        trainer = Trainer(pruned, retrain, joint_loss=joint_loss)
        history = trainer.fit(images, labels, augment=augment)
    pruned.eval()
    return PruneRetrainResult(pruned, report, history)


# ----------------------------------------------------------------------
# Progressive soft filter pruning (PSFP)
# ----------------------------------------------------------------------

def psfp_removal_fraction(epoch: int, total_epochs: int,
                          floor: float = PSFP_DECAY_FLOOR) -> float:
    """Cumulative fraction of the target rate masked after ``epoch`` epochs.

    Follows the SFP exponential ramp ``(1 - e^{-k e}) / (1 - e^{-k E})``
    with ``k = ln(1/floor) / E``: zero before the first epoch, exactly
    1.0 after the last, and front-loaded so most of the sparsity is
    introduced while plenty of recovery epochs remain.
    """
    if total_epochs <= 0:
        return 1.0
    if epoch <= 0:
        return 0.0
    epoch = min(epoch, total_epochs)
    k = math.log(1.0 / floor) / total_epochs
    return (1.0 - math.exp(-k * epoch)) / (1.0 - math.exp(-k * total_epochs))


def soft_prune_epoch(model: BranchedModel, rate: float,
                     prune_exits: bool = True, criterion="l1") -> None:
    """Zero the currently weakest filters of every prunable CONV in place.

    Soft masking: only the filter's own weight/bias rows are zeroed (the
    following BatchNorm and consumers are untouched), shapes never
    change, and the zeroed rows remain trainable — the next epoch may
    resurrect them. Criteria with cross-layer allocation (HAPM)
    redistribute the masked budget exactly as a hard prune would.
    """
    crit = get_criterion(criterion)
    if rate <= 0.0:
        return
    # Unconstrained counts: a soft mask never changes the fold.
    plan = plan_counts(model, rate, prune_exits=prune_exits, criterion=crit)
    for conv in _prunable_convs(model, prune_exits):
        num = plan[conv.name].achieved_removal
        if num <= 0:
            continue
        keep = select_keep_filters(conv.params["weight"], num, criterion=crit)
        _mask_conv_out(conv, keep)


def psfp_retrain_epochs(
    model: BranchedModel,
    rate: float,
    images: np.ndarray,
    labels: np.ndarray,
    retrain: TrainConfig,
    start_epoch: int,
    epochs: int,
    total_epochs: int,
    prune_exits: bool = True,
    criterion="l1",
    joint_loss: JointLoss | None = None,
    augment=None,
) -> int:
    """Run epochs ``[start_epoch, start_epoch + epochs)`` of a PSFP ramp.

    The model trains **in place**. Each epoch is an independent
    single-epoch :class:`Trainer` run seeded ``retrain.seed + epoch`` and
    followed by a soft mask at that epoch's ramp fraction, so any split
    of the full budget into contiguous chunks reproduces the unsplit run
    bit-for-bit (given a bit-exact weight round-trip between chunks).
    Returns the number of epochs actually trained.
    """
    trained = 0
    for e in range(start_epoch, start_epoch + epochs):
        if e >= total_epochs:
            break
        cfg = replace(retrain, epochs=1, seed=retrain.seed + e)
        Trainer(model, cfg, joint_loss=joint_loss).fit(
            images, labels, augment=augment)
        frac = psfp_removal_fraction(e + 1, total_epochs)
        soft_prune_epoch(model, rate * frac, prune_exits=prune_exits,
                         criterion=criterion)
        trained += 1
    return trained


def psfp_prune_retrain(
    model: BranchedModel,
    rate: float,
    images: np.ndarray,
    labels: np.ndarray,
    retrain: TrainConfig | None = None,
    constraints: dict[str, LayerFoldConstraint] | None = None,
    prune_exits: bool = True,
    joint_loss: JointLoss | None = None,
    augment=None,
    criterion="l1",
) -> PruneRetrainResult:
    """Full PSFP pipeline: soft-masked training, then one hard prune.

    With ``rate == 0`` or no retraining budget this degenerates to the
    hard schedule (a plain prune, no training), so sweep points shared
    between schedules stay identical.
    """
    epochs = retrain.epochs if retrain is not None else 0
    if rate > 0 and epochs > 0:
        soft = model.clone()
        psfp_retrain_epochs(soft, rate, images, labels, retrain,
                            start_epoch=0, epochs=epochs,
                            total_epochs=epochs, prune_exits=prune_exits,
                            criterion=criterion, joint_loss=joint_loss,
                            augment=augment)
        pruned, report = prune_model(soft, rate, constraints=constraints,
                                     prune_exits=prune_exits,
                                     criterion=criterion)
        pruned.eval()
        return PruneRetrainResult(pruned, report, None)
    return prune_and_retrain(model, rate, images, labels, retrain=None,
                             constraints=constraints, prune_exits=prune_exits,
                             joint_loss=joint_loss, augment=augment,
                             criterion=criterion)
