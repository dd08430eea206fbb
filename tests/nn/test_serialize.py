"""Model weight snapshot round-trip tests."""

import numpy as np
import pytest

from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn import TrainConfig, Trainer, load_state_arrays, state_arrays


def fresh_model(seed):
    return build_cnv(CNVConfig(width_scale=0.125, seed=seed),
                     ExitsConfiguration.paper_default())


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self):
        model = fresh_model(seed=1)
        # Touch BN running stats so they differ from the defaults.
        model.train()
        model.forward(np.random.default_rng(0).normal(size=(8, 3, 32, 32)))
        model.eval()
        arrays = state_arrays(model)

        other = fresh_model(seed=2)  # different init
        other.eval()
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        before = other.forward(x)
        load_state_arrays(other, arrays)
        after = other.forward(x)
        ref = model.forward(x)
        for a, r in zip(after, ref):
            np.testing.assert_allclose(a, r, atol=1e-12)
        assert not all(np.allclose(b, r) for b, r in zip(before, ref))

    def test_running_stats_restored(self):
        model = fresh_model(seed=3)
        model.train()
        model.forward(np.random.default_rng(2).normal(
            loc=2.0, size=(16, 3, 32, 32)))
        other = fresh_model(seed=4)
        load_state_arrays(other, state_arrays(model))
        bn = model.segments[0].layers[1]
        bn_other = other.segments[0].layers[1]
        np.testing.assert_allclose(bn_other.running_mean, bn.running_mean)
        np.testing.assert_allclose(bn_other.running_var, bn.running_var)

    def test_architecture_mismatch_rejected(self):
        arrays = state_arrays(fresh_model(seed=5))
        wrong = build_cnv(CNVConfig(width_scale=0.25, seed=5),
                          ExitsConfiguration.paper_default())
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_arrays(wrong, arrays)

    def test_missing_exits_rejected(self):
        no_exits = build_cnv(CNVConfig(width_scale=0.125, seed=6))
        arrays = state_arrays(no_exits)
        with_exits = fresh_model(seed=6)
        with pytest.raises(ValueError, match="missing parameters"):
            load_state_arrays(with_exits, arrays)

    def test_trained_model_survives(self):
        from repro.data import make_dataset

        train, test = make_dataset("cifar10", 96, 48, seed=9)
        model = fresh_model(seed=7)
        Trainer(model, TrainConfig(epochs=1, batch_size=32)).fit(
            train.images, train.labels)
        clone = fresh_model(seed=8)
        load_state_arrays(clone, state_arrays(model))
        clone.eval()  # snapshots don't carry train/eval mode
        a = model.forward(test.images[:4])
        b = clone.forward(test.images[:4])
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-12)
