"""Compilation of streamlined IR graphs to dataflow accelerators."""

import numpy as np
import pytest

from repro.finn import (
    CompileError,
    MVTU,
    compile_accelerator,
    cnv_reference_fold,
)
from repro.finn.hls import DuplicateStreamsUnit, PoolUnit, SlidingWindowUnit
from repro.ir import export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.pruning import soft_prune_epoch


@pytest.fixture(scope="module")
def accel_setup():
    model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                      ExitsConfiguration.paper_default())
    model.eval()
    graph = export_model(model)
    streamline(graph)
    fold = cnv_reference_fold(model)
    return model, compile_accelerator(graph, fold)


class TestCompile:
    def test_module_census(self, accel_setup):
        _, accel = accel_setup
        types = {}
        for m in accel.modules:
            types[type(m).__name__] = types.get(type(m).__name__, 0) + 1
        assert types["SlidingWindowUnit"] == 8   # one per conv
        assert types["MVTU"] == 8 + 7            # convs + FC layers
        assert types["PoolUnit"] == 4
        assert types["DuplicateStreamsUnit"] == 2

    def test_num_exits(self, accel_setup):
        _, accel = accel_setup
        assert accel.num_exits == 3

    def test_exit_paths_nested(self, accel_setup):
        """Path to exit k is a superset of the shared prefix: deeper exits
        traverse strictly more stages."""
        _, accel = accel_setup
        sizes = [len(p) for p in accel.exit_paths]
        assert sizes[0] < sizes[-1]
        # The backbone path contains no exit-branch modules.
        final_names = [accel.modules[i].name for i in accel.exit_paths[-1]]
        assert not any(n.startswith("exit") for n in final_names)
        # Early-exit paths contain their branch modules.
        e0_names = [accel.modules[i].name for i in accel.exit_paths[0]]
        assert any(n.startswith("exit0") for n in e0_names)

    def test_exit_latency_ordering(self, accel_setup):
        _, accel = accel_setup
        cycles = [accel.exit_cycles(k) for k in range(3)]
        assert cycles[0] < cycles[2]
        assert cycles[1] < cycles[2]

    def test_thresholds_folded_into_mvtu(self, accel_setup):
        """After compilation, quantized activations live inside MVTUs
        (the T in MVTU), not as standalone stages."""
        _, accel = accel_setup
        standalone = [m for m in accel.modules
                      if type(m).__name__ == "ThresholdUnit"]
        assert not standalone
        with_thresholds = [m for m in accel.modules
                           if isinstance(m, MVTU) and m.thresholds > 0]
        assert len(with_thresholds) == 12  # all but the 3 logit MVTUs

    def test_resources_positive(self, accel_setup):
        _, accel = accel_setup
        res = accel.resources()
        assert res.lut > 0 and res.bram18 > 0

    def test_branch_overhead(self, accel_setup):
        _, accel = accel_setup
        overhead = accel.branch_overhead_resources()
        total = accel.resources()
        assert 0 < overhead.bram18 < total.bram18

    def test_pipelined_ips(self, accel_setup):
        _, accel = accel_setup
        assert accel.pipelined_ips() == pytest.approx(
            accel.clock_hz / accel.bottleneck_cycles())

    def test_unstreamlined_graph_rejected(self):
        model = build_cnv(CNVConfig(width_scale=0.125, seed=0),
                          ExitsConfiguration.none())
        model.eval()
        graph = export_model(model)  # BatchNorms still present
        with pytest.raises(CompileError):
            compile_accelerator(graph)

    def test_folding_refit_after_pruning(self):
        """Folding factors that no longer divide pruned widths must be
        refit to the largest feasible divisor, not crash."""
        from repro.pruning import prune_model

        model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                          ExitsConfiguration.paper_default())
        model.eval()
        fold = cnv_reference_fold(model)
        pruned, _ = prune_model(model, 0.55)  # no constraints on purpose
        graph = export_model(pruned)
        streamline(graph)
        accel = compile_accelerator(graph, fold)
        assert accel.resources().lut > 0

    def test_gtsrb_class_count_compiles(self):
        """43 classes is prime — folding must refit PE for the logits
        layer instead of crashing."""
        model = build_cnv(CNVConfig(width_scale=0.25, seed=0,
                                    num_classes=43),
                          ExitsConfiguration.paper_default())
        model.eval()
        graph = export_model(model)
        streamline(graph)
        accel = compile_accelerator(graph, cnv_reference_fold(model))
        logits_mvtu = accel.module_by_name("seg2/fc2.mvtu")
        assert logits_mvtu.rows == 43
        assert logits_mvtu.rows % logits_mvtu.pe == 0

    def test_module_by_name(self, accel_setup):
        _, accel = accel_setup
        m = accel.module_by_name("seg0/b0_conv0.mvtu")
        assert isinstance(m, MVTU)
        with pytest.raises(KeyError):
            accel.module_by_name("zzz")


class TestZeroSkipFloor:
    """A zero-skipping accelerator pays off on zeroed filters: per exit
    it needs no more cycles than the dense datapath, and strictly fewer
    once filters are zeroed (here by soft pruning, in place)."""

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_exit_cycles(self, rate):
        model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                          ExitsConfiguration.paper_default(pruned=True))
        soft_prune_epoch(model, rate)
        model.eval()
        graph = export_model(model)
        streamline(graph)
        dense = compile_accelerator(graph)
        skip = compile_accelerator(graph, zero_skip=True)
        assert dense.num_exits == skip.num_exits == 3
        for i in range(dense.num_exits):
            if rate:
                assert skip.exit_cycles(i) < dense.exit_cycles(i)
            else:
                assert skip.exit_cycles(i) <= dense.exit_cycles(i)
