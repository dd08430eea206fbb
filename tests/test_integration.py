"""Cross-module integration tests: the paper's qualitative claims at
quick scale, and functional equivalence across the whole flow."""

import numpy as np
import pytest

from repro.edge import WorkloadSpec
from repro.finn import cnv_reference_fold, compile_accelerator, fold_constraints
from repro.ir import export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.pruning import prune_model
from tests.ir.exit_structure import verify_exit_structure


class TestFlowEquivalence:
    """model -> prune -> export -> streamline stays function-preserving."""

    @pytest.mark.parametrize("rate", [0.0, 0.45, 0.8])
    def test_pruned_export_matches_model(self, rate):
        model = build_cnv(CNVConfig(width_scale=0.125, seed=11),
                          ExitsConfiguration.paper_default())
        model.eval()
        fold = cnv_reference_fold(model)
        cons = fold_constraints(model, fold)
        pruned, _ = prune_model(model, rate, constraints=cons)
        graph = export_model(pruned)
        verify_exit_structure(graph)
        streamline(graph)
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        for a, b in zip(pruned.forward(x), graph.execute(x)):
            np.testing.assert_allclose(a, b, atol=1e-9)
        # And it still compiles to a valid accelerator.
        accel = compile_accelerator(graph, fold)
        assert accel.num_exits == 3


class TestPaperShapeClaims:
    """The headline qualitative claims, on the quick-profile library."""

    def test_adapex_dominates_under_overload(self, quick_framework):
        # The runtime-mechanism half of the paper's claim, robust to the
        # quick profile's training noise: under genuine overload AdaPEx
        # loses the fewest frames of all policies, and never trails
        # CT-Only (whose operating points are a subset of its own).
        # The full QoE dominance (which additionally needs properly
        # trained accuracies) is asserted in benchmarks/bench_fig6.
        workload = WorkloadSpec(num_cameras=20, ips_per_camera=30.0,
                                duration_s=8.0)
        results = quick_framework.evaluate_at_edge(runs=4, workload=workload)
        assert results["FINN"].inference_loss > 0.05  # genuinely overloaded
        min_loss = min(agg.inference_loss for agg in results.values())
        assert results["AdaPEx"].inference_loss <= min_loss + 1e-9
        assert results["AdaPEx"].qoe >= results["CT-Only"].qoe - 1e-9

    def test_adapex_loses_fewer_frames_than_finn(self, quick_framework):
        workload = WorkloadSpec(num_cameras=6, ips_per_camera=30.0,
                                duration_s=8.0)
        results = quick_framework.evaluate_at_edge(
            policies=("adapex", "finn"), runs=4, workload=workload)
        assert results["AdaPEx"].inference_loss \
            <= results["FINN"].inference_loss

    def test_design_space_is_larger_than_baselines(self, quick_library):
        """Combining both knobs yields strictly more operating points
        than either baseline's slice (the paper's core premise)."""
        ee = [e for e in quick_library if e.accelerator.variant == "ee"]
        ct_only = [e for e in ee if e.accelerator.pruning_rate == 0.0
                   and e.accelerator.pruned_exits]
        pr_only = [e for e in quick_library
                   if e.accelerator.variant == "backbone"]
        assert len(ee) > len(ct_only)
        assert len(ee) > len(pr_only)

    def test_throughput_span_exceeds_baselines(self, quick_library):
        def span(entries):
            ips = [e.serving_ips for e in entries]
            return max(ips) / min(ips)

        ee = [e for e in quick_library if e.accelerator.variant == "ee"]
        ct_only = [e for e in ee if e.accelerator.pruning_rate == 0.0
                   and e.accelerator.pruned_exits]
        assert span(ee) > span(ct_only)

    def test_library_deterministic(self):
        from repro.core import AdaPExConfig, LibraryGenerator

        cfg = AdaPExConfig.quick(seed=12)
        cfg.pruning_rates = [0.0, 0.6]
        cfg.confidence_thresholds = [0.5]
        cfg.include_not_pruned_exits = False
        cfg.include_backbone_variant = False
        lib_a = LibraryGenerator(cfg).generate()
        lib_b = LibraryGenerator(cfg).generate()
        for a, b in zip(lib_a, lib_b):
            assert a.accuracy == pytest.approx(b.accuracy)
            assert a.serving_ips == pytest.approx(b.serving_ips)
