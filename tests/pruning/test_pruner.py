"""Structural pruning of branched CNV models."""

import numpy as np
import pytest

from repro.core.errors import classify_error
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn.graph import BranchedModel
from repro.nn.layers import QuantConv2D
from repro.pruning import LayerFoldConstraint, PruningError, prune_model
from repro.pruning import pruner


@pytest.fixture(scope="module")
def base_model():
    return build_cnv(CNVConfig(width_scale=0.25, seed=0),
                     ExitsConfiguration.paper_default())


class TestPruneModel:
    def test_rate_zero_preserves_function(self, base_model):
        base_model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        ref = base_model.forward(x)
        pruned, report = prune_model(base_model, 0.0)
        out = pruned.forward(x)
        for a, b in zip(ref, out):
            np.testing.assert_allclose(a, b, atol=1e-10)
        assert report.achieved_rate == 0.0

    def test_original_untouched(self, base_model):
        params_before = base_model.param_count()
        prune_model(base_model, 0.5)
        assert base_model.param_count() == params_before

    def test_channel_counts_shrink(self, base_model):
        pruned, report = prune_model(base_model, 0.5)
        convs = {l.name: l for l in pruned.backbone_layers()
                 if isinstance(l, QuantConv2D)}
        orig = {l.name: l for l in base_model.backbone_layers()
                if isinstance(l, QuantConv2D)}
        for name, conv in convs.items():
            assert conv.out_channels == orig[name].out_channels // 2

    def test_forward_works_all_rates(self, base_model):
        x = np.zeros((1, 3, 32, 32))
        for rate in (0.05, 0.25, 0.45, 0.65, 0.85):
            pruned, _ = prune_model(base_model, rate)
            out = pruned.forward(x)
            assert all(o.shape == (1, 10) for o in out)

    def test_exits_pruned_flag(self, base_model):
        with_px, _ = prune_model(base_model, 0.5, prune_exits=True)
        without, _ = prune_model(base_model, 0.5, prune_exits=False)
        exit_conv_px = with_px.exits[0].layers[0]
        exit_conv_np = without.exits[0].layers[0]
        assert exit_conv_px.out_channels < exit_conv_np.out_channels
        # Input channels follow the backbone either way.
        assert exit_conv_px.in_channels == exit_conv_np.in_channels

    def test_not_pruned_exits_more_params(self, base_model):
        px, _ = prune_model(base_model, 0.6, prune_exits=True)
        npx, _ = prune_model(base_model, 0.6, prune_exits=False)
        assert npx.param_count() > px.param_count()

    def test_constraints_respected(self, base_model):
        cons = {
            "b0_conv0": LayerFoldConstraint(pe=4, simd_next=8),
            "b2_conv1": LayerFoldConstraint(pe=16, simd_next=1),
        }
        pruned, report = prune_model(base_model, 0.3, constraints=cons)
        d0 = report.decision_for("b0_conv0")
        assert d0.channels_after % 4 == 0
        assert d0.channels_after % 8 == 0
        d5 = report.decision_for("b2_conv1")
        assert d5.channels_after % 16 == 0

    def test_report_contents(self, base_model):
        _, report = prune_model(base_model, 0.25)
        assert report.rate == 0.25
        names = [d.layer_name for d in report.decisions]
        assert "b0_conv0" in names and "b2_conv1" in names
        assert "exit0_conv" in names  # exits pruned by default
        for d in report.decisions:
            assert d.channels_after == len(d.keep)
            assert 0 <= d.achieved_removal <= d.requested_removal

    def test_report_excludes_exits_when_not_pruned(self, base_model):
        _, report = prune_model(base_model, 0.25, prune_exits=False)
        names = [d.layer_name for d in report.decisions]
        assert "exit0_conv" not in names

    def test_decision_for_unknown_raises(self, base_model):
        _, report = prune_model(base_model, 0.25)
        with pytest.raises(KeyError):
            report.decision_for("nope")

    def test_no_exit_model(self):
        model = build_cnv(CNVConfig(width_scale=0.125, seed=1))
        pruned, report = prune_model(model, 0.5)
        assert pruned.forward(np.zeros((1, 3, 32, 32)))[0].shape == (1, 10)
        assert report.achieved_rate > 0.4

    def test_pruned_model_still_trainable(self, base_model):
        """Gradient flow must survive the structural surgery."""
        pruned, _ = prune_model(base_model, 0.5)
        pruned.train()
        x = np.random.default_rng(2).normal(size=(4, 3, 32, 32))
        outs = pruned.forward(x)
        pruned.zero_grad()
        pruned.backward([np.ones_like(o) for o in outs])
        conv = pruned.segments[0].layers[0]
        assert np.abs(conv.grads["weight"]).sum() > 0

    def test_l1_ranking_drives_selection(self):
        """Filters zeroed by hand must be the first removed."""
        model = build_cnv(CNVConfig(width_scale=0.25, seed=3),
                          ExitsConfiguration.none())
        conv0 = model.segments[0].layers[0]
        conv0.params["weight"][[1, 3]] = 0.0
        _, report = prune_model(model, 0.15)
        d = report.decision_for("b0_conv0")
        assert 1 not in d.keep and 3 not in d.keep


def _stale_weight(real, name):
    """An applier that, on the layer called ``name``, updates the width
    attribute but leaves the weight unsliced."""
    def applier(layer, *args):
        weight = layer.params["weight"]
        real(layer, *args)
        if layer.name == name:
            layer.params["weight"] = weight
    return applier


class TestStructureCheck:
    """A pruning pass that leaves a layer inconsistent with the channels
    flowing into it fails with a permanent PruningError, found by a
    static walk of the model rather than a forward pass."""

    def _fails(self, base_model, layer_name, match):
        with pytest.raises(PruningError, match=match) as info:
            prune_model(base_model, 0.5)
        assert layer_name in str(info.value)
        assert classify_error(info.value) == "permanent"

    @pytest.mark.parametrize("key", ["gamma", "beta", "running_mean",
                                     "running_var"])
    def test_batchnorm_length(self, base_model, monkeypatch, key):
        real = pruner._slice_bn

        def slice_bn(bn, keep):
            stale = bn.params[key] if key in bn.params else getattr(bn, key)
            real(bn, keep)
            if bn.name == "b1_bn0":
                if key in bn.params:
                    bn.params[key] = stale
                else:
                    setattr(bn, key, stale)

        monkeypatch.setattr(pruner, "_slice_bn", slice_bn)
        self._fails(base_model, "b1_bn0", f"{key} has shape")

    def test_conv_input_channels(self, base_model, monkeypatch):
        # b1_conv0 reads the channels escaping segment 0.
        monkeypatch.setattr(pruner, "_slice_conv_in", _stale_weight(
            pruner._slice_conv_in, "b1_conv0"))
        self._fails(base_model, "b1_conv0", "expected")

    def test_exit_branch_input_channels(self, base_model, monkeypatch):
        monkeypatch.setattr(pruner, "_slice_conv_in", _stale_weight(
            pruner._slice_conv_in, "exit0_conv"))
        self._fails(base_model, "exit0_conv", "expected")

    def test_flatten_linear_columns(self, base_model, monkeypatch):
        monkeypatch.setattr(pruner, "_slice_linear_in_channels", _stale_weight(
            pruner._slice_linear_in_channels, "fc0"))
        self._fails(base_model, "fc0", "expected")

    def test_no_forward_pass(self, base_model, monkeypatch):
        def forward(self, x):
            raise AssertionError("prune_model ran a forward pass")

        monkeypatch.setattr(BranchedModel, "forward", forward)
        pruned, _ = prune_model(base_model, 0.5)
        assert not any(layer.training for layer in pruned.all_layers())
