"""Prune-retrain pipeline tests."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn import TrainConfig
from repro.pruning import paper_rate_sweep, prune_and_retrain


@pytest.fixture(scope="module")
def trained_setup():
    train, test = make_dataset("cifar10", 96, 48, seed=0)
    model = build_cnv(CNVConfig(width_scale=0.125, seed=0),
                      ExitsConfiguration.paper_default())
    return model, train


class TestPaperRateSweep:
    def test_18_rates(self):
        rates = paper_rate_sweep()
        assert len(rates) == 18
        assert rates[0] == 0.0
        assert rates[-1] == 0.85
        steps = np.diff(rates)
        np.testing.assert_allclose(steps, 0.05)


class TestPruneAndRetrain:
    def test_basic(self, trained_setup):
        model, train = trained_setup
        result = prune_and_retrain(
            model, 0.5, train.images, train.labels,
            retrain=TrainConfig(epochs=1, batch_size=32))
        assert result.rate == 0.5
        assert result.achieved_rate > 0.3
        assert result.history is not None
        assert result.model.param_count() < model.param_count()

    def test_rate_zero_skips_retrain(self, trained_setup):
        model, train = trained_setup
        result = prune_and_retrain(
            model, 0.0, train.images, train.labels,
            retrain=TrainConfig(epochs=1))
        assert result.history is None

    def test_no_retrain_config(self, trained_setup):
        model, train = trained_setup
        result = prune_and_retrain(model, 0.4, train.images, train.labels,
                                   retrain=None)
        assert result.history is None
        assert result.model.param_count() < model.param_count()


# ----------------------------------------------------------------------
# progressive soft filter pruning (PSFP)
# ----------------------------------------------------------------------
from repro.nn.layers import Conv2D  # noqa: E402
from repro.nn.serialize import state_arrays  # noqa: E402
from repro.pruning import (  # noqa: E402
    SCHEDULES,
    psfp_prune_retrain,
    psfp_removal_fraction,
    psfp_retrain_epochs,
    soft_prune_epoch,
)


class TestPsfpRemovalFraction:
    def test_boundaries(self):
        assert psfp_removal_fraction(0, 10) == 0.0
        assert psfp_removal_fraction(10, 10) == pytest.approx(1.0)
        assert psfp_removal_fraction(12, 10) == pytest.approx(1.0)  # clamp
        assert psfp_removal_fraction(3, 0) == 1.0  # degenerate budget

    def test_monotone_and_front_loaded(self):
        fracs = [psfp_removal_fraction(e, 8) for e in range(9)]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        # Exponential ramp: more than half the sparsity lands in the
        # first half of the budget.
        assert fracs[4] > 0.5

    def test_schedules_constant(self):
        assert SCHEDULES == ("hard", "psfp")


class TestSoftPruneEpoch:
    def test_masks_in_place_without_reshaping(self, trained_setup):
        model, _ = trained_setup
        soft = model.clone()
        convs_before = {l.name: l.params["weight"].shape
                        for seg in soft.segments for l in seg.layers
                        if isinstance(l, Conv2D)}
        soft_prune_epoch(soft, 0.5)
        for seg in soft.segments:
            for layer in seg.layers:
                if not isinstance(layer, Conv2D):
                    continue
                w = layer.params["weight"]
                assert w.shape == convs_before[layer.name]  # no slicing
                zeroed = np.all(w.reshape(w.shape[0], -1) == 0.0, axis=1)
                assert 0 < zeroed.sum() < w.shape[0]

    def test_rate_zero_is_a_no_op(self, trained_setup):
        model, _ = trained_setup
        soft = model.clone()
        before = state_arrays(soft)
        soft_prune_epoch(soft, 0.0)
        after = state_arrays(soft)
        assert all(np.array_equal(before[k], after[k]) for k in before)


class TestPsfpSplitDeterminism:
    def test_any_rung_split_is_bit_identical(self, trained_setup):
        """Epoch-seeded PSFP training can be cut at any epoch boundary
        and resumed without changing a single bit — the invariant the
        successive-halving engine's promotions rely on."""
        model, train = trained_setup
        retrain = TrainConfig(epochs=1, batch_size=32, seed=11)

        unsplit = model.clone()
        psfp_retrain_epochs(unsplit, 0.5, train.images, train.labels,
                            retrain, start_epoch=0, epochs=3,
                            total_epochs=3)

        split = model.clone()
        psfp_retrain_epochs(split, 0.5, train.images, train.labels,
                            retrain, start_epoch=0, epochs=1,
                            total_epochs=3)
        psfp_retrain_epochs(split, 0.5, train.images, train.labels,
                            retrain, start_epoch=1, epochs=2,
                            total_epochs=3)

        a, b = state_arrays(unsplit), state_arrays(split)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_overrun_epochs_are_clamped(self, trained_setup):
        model, train = trained_setup
        soft = model.clone()
        retrain = TrainConfig(epochs=1, batch_size=32, seed=11)
        trained = psfp_retrain_epochs(soft, 0.5, train.images,
                                      train.labels, retrain,
                                      start_epoch=2, epochs=10,
                                      total_epochs=3)
        assert trained == 1  # only epoch 2 remains in the budget


class TestPsfpPruneRetrain:
    def test_full_pipeline_prunes_hard_at_the_end(self, trained_setup):
        model, train = trained_setup
        result = psfp_prune_retrain(
            model, 0.5, train.images, train.labels,
            retrain=TrainConfig(epochs=2, batch_size=32, seed=11))
        assert result.rate == 0.5
        assert result.model.param_count() < model.param_count()

    def test_degenerates_without_budget(self, trained_setup):
        """rate==0 or epochs==0 must collapse to the hard path so sweep
        points shared between schedules stay identical."""
        model, train = trained_setup
        from repro.pruning import prune_and_retrain
        for rate, retrain in ((0.0, TrainConfig(epochs=2)), (0.5, None)):
            psfp = psfp_prune_retrain(model, rate, train.images,
                                      train.labels, retrain=retrain)
            hard = prune_and_retrain(model, rate, train.images,
                                     train.labels, retrain=None)
            a = state_arrays(psfp.model)
            b = state_arrays(hard.model)
            assert a.keys() == b.keys()
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
