"""Experiment drivers (one per paper figure/table) and result rendering."""

from .experiments import (
    fig1_tradeoff,
    fig4_design_space,
    fig5_accuracy_latency,
    fig5_resources,
    fig6_qoe_edp,
    pareto_frontier,
    reconfiguration_ablation,
    table1_rows,
)
from .paper import PAPER_FIG6, PAPER_TABLE1, compare_fig6, compare_table1
from .report import format_table, write_csv

__all__ = [
    "fig1_tradeoff", "fig4_design_space", "fig5_accuracy_latency",
    "fig5_resources", "fig6_qoe_edp", "pareto_frontier", "reconfiguration_ablation",
    "table1_rows",
    "PAPER_FIG6", "PAPER_TABLE1", "compare_fig6", "compare_table1",
    "format_table", "write_csv",
]
