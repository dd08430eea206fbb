"""Exit configuration and branch construction tests."""

import numpy as np
import pytest

from repro.models.exits import ExitSpec, ExitsConfiguration, build_exit_branch
from repro.nn.layers import MaxPool2d, QuantConv2D
from repro.nn.quant import QuantSpec


class TestExitSpec:
    def test_defaults(self):
        spec = ExitSpec(after_block=0)
        assert spec.pruned is True
        assert spec.conv_channels is None

    def test_rejects_negative_block(self):
        with pytest.raises(ValueError):
            ExitSpec(after_block=-1)


class TestExitsConfiguration:
    def test_paper_default(self):
        cfg = ExitsConfiguration.paper_default()
        assert cfg.num_early_exits == 2
        assert [e.after_block for e in cfg.exits] == [0, 1]

    def test_none(self):
        assert ExitsConfiguration.none().num_early_exits == 0

    def test_rejects_duplicate_blocks(self):
        with pytest.raises(ValueError):
            ExitsConfiguration((ExitSpec(0), ExitSpec(0)))

    def test_sorted_by_block(self):
        cfg = ExitsConfiguration((ExitSpec(1), ExitSpec(0)))
        assert [e.after_block for e in cfg.exits] == [0, 1]

    def test_with_pruned(self):
        cfg = ExitsConfiguration.paper_default(pruned=True)
        flipped = cfg.with_pruned(False)
        assert all(not e.pruned for e in flipped.exits)
        assert all(e.pruned for e in cfg.exits)  # original untouched


class TestBuildExitBranch:
    def _branch(self, shape=(16, 14, 14), **spec_kwargs):
        spec = ExitSpec(after_block=0, **spec_kwargs)
        return build_exit_branch(shape, spec, num_classes=10, fc_width=32,
                                 quant=QuantSpec(),
                                 rng=np.random.default_rng(0))

    def test_output_is_logits(self):
        branch = self._branch()
        # Layers take channel-major (C, N, H, W) activations.
        out = branch.forward(np.zeros((16, 2, 14, 14)))
        assert out.shape == (2, 10)

    def test_pool_kernel_is_half_dim(self):
        """The paper: max-pool kernel k = floor(DIM / 2)."""
        branch = self._branch(shape=(16, 14, 14))
        pool = [l for l in branch if isinstance(l, MaxPool2d)][0]
        assert pool.kernel_size == 7

    def test_small_map_pool_clamped(self):
        branch = self._branch(shape=(16, 1, 1))
        pool = [l for l in branch if isinstance(l, MaxPool2d)][0]
        assert pool.kernel_size == 1
        assert branch.forward(np.zeros((16, 1, 1, 1))).shape == (1, 10)

    def test_conv_channels_default_to_host(self):
        branch = self._branch(shape=(24, 14, 14))
        conv = [l for l in branch if isinstance(l, QuantConv2D)][0]
        assert conv.in_channels == 24
        assert conv.out_channels == 24

    def test_conv_channels_override(self):
        branch = self._branch(conv_channels=8)
        conv = [l for l in branch if isinstance(l, QuantConv2D)][0]
        assert conv.out_channels == 8

    def test_fc_width_override(self):
        branch = self._branch(fc_width=64)
        from repro.nn.layers import QuantLinear

        fcs = [l for l in branch if isinstance(l, QuantLinear)]
        assert fcs[0].out_features == 64
