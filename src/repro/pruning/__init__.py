"""Dataflow-aware structured filter pruning (the paper's Sec. IV-A2)."""

from .dataflow import (
    LayerFoldConstraint,
    adjust_removal,
    requested_removal,
)
from .pruner import (
    CountPlan,
    LayerCount,
    PruneDecision,
    PruneReport,
    PruningError,
    plan_counts,
    prune_model,
)
from .ranking import (
    CRITERIA,
    FPGMCriterion,
    HAPMCriterion,
    L1Criterion,
    PruningCriterion,
    filter_fpgm_distances,
    filter_l1_norms,
    get_criterion,
    register_criterion,
    select_keep_filters,
)
from .schedule import (
    SCHEDULES,
    PruneRetrainResult,
    paper_rate_sweep,
    prune_and_retrain,
    psfp_prune_retrain,
    psfp_removal_fraction,
    psfp_retrain_epochs,
    soft_prune_epoch,
)

__all__ = [
    "LayerFoldConstraint", "adjust_removal",
    "requested_removal",
    "CountPlan", "LayerCount", "plan_counts",
    "PruneDecision", "PruneReport", "PruningError", "prune_model",
    "filter_l1_norms", "filter_fpgm_distances", "select_keep_filters",
    "PruningCriterion", "L1Criterion", "FPGMCriterion", "HAPMCriterion",
    "CRITERIA", "get_criterion", "register_criterion",
    "PruneRetrainResult", "paper_rate_sweep", "prune_and_retrain",
    "SCHEDULES", "psfp_removal_fraction", "soft_prune_epoch",
    "psfp_retrain_epochs", "psfp_prune_retrain",
]
