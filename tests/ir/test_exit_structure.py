"""Structural checks of branched IR exports (``tests/ir/exit_structure``)."""

import copy

import pytest

from repro.ir import export_model
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from tests.ir.exit_structure import verify_exit_structure


@pytest.fixture(scope="module")
def graph():
    model = build_cnv(CNVConfig(width_scale=0.125, seed=8),
                      ExitsConfiguration.paper_default())
    model.eval()
    return export_model(model)


class TestVerifyExitStructure:
    def test_valid_graph_passes(self, graph):
        verify_exit_structure(graph)

    def test_no_exit_graph_passes(self):
        model = build_cnv(CNVConfig(width_scale=0.125, seed=0))
        model.eval()
        verify_exit_structure(export_model(model))

    def test_detects_missing_branch(self, graph):
        broken = copy.deepcopy(graph)
        broken.metadata["num_exits"] = 4  # claims one more exit
        with pytest.raises(ValueError):
            verify_exit_structure(broken)

    def test_detects_cycle(self, graph):
        broken = copy.deepcopy(graph)
        order = broken.topological_order()
        # Feed the first node from the last node's output.
        order[0].inputs = list(order[0].inputs) + [order[-1].outputs[0]]
        with pytest.raises(ValueError, match="cycle"):
            verify_exit_structure(broken)
