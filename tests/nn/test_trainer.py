"""Training loop and evaluation utilities."""

import json

import numpy as np
import pytest

from repro.nn import (
    BranchedModel,
    JointLoss,
    Linear,
    ReLU,
    Sequential,
    TrainConfig,
    Trainer,
    evaluate_cascade,
    evaluate_exits,
)
from repro.nn.trainer import cascade_sweep


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    seg0 = Sequential([Linear(6, 24, rng=rng), ReLU()])
    seg1 = Sequential([Linear(24, 3, rng=rng)])
    exit0 = Sequential([Linear(24, 3, rng=rng)])
    return BranchedModel([seg0, seg1], {0: exit0}, input_shape=(6,))


def make_data(n=240, seed=0):
    """Linearly separable 3-class problem on 6 features."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    centers = rng.normal(size=(3, 6)) * 3.0
    x = centers[labels] + rng.normal(scale=0.5, size=(n, 6))
    return x, labels


class TestTrainer:
    def test_loss_decreases(self):
        x, y = make_data()
        model = make_model()
        history = Trainer(model, TrainConfig(epochs=5, batch_size=32,
                                             lr=0.01)).fit(x, y)
        assert history.joint_loss[-1] < history.joint_loss[0]

    def test_learns_separable_data(self):
        x, y = make_data()
        model = make_model()
        Trainer(model, TrainConfig(epochs=20, batch_size=32, lr=0.01)).fit(x, y)
        accs = evaluate_exits(model, x, y)
        assert accs[-1] > 0.9

    def test_history_lengths(self):
        x, y = make_data(60)
        model = make_model()
        h = Trainer(model, TrainConfig(epochs=3, batch_size=16)).fit(x, y)
        assert len(h.joint_loss) == 3
        assert len(h.exit_losses) == 3
        assert len(h.train_accuracy) == 3
        assert all(len(t) == model.num_exits for t in h.exit_losses)

    def test_model_left_in_eval_mode(self):
        x, y = make_data(30)
        model = make_model()
        Trainer(model, TrainConfig(epochs=1)).fit(x, y)
        assert all(not layer.training for layer in model.all_layers())

    def test_fit_and_clone_leave_no_backward_scratch(self):
        """Training scratch (im2col columns, argmax, inputs) is released
        when ``fit`` returns, and ``clone`` copies parameters and state
        only, even after an inference forward refilled the caches."""
        from repro.models import CNVConfig, ExitsConfiguration, build_cnv

        model = build_cnv(CNVConfig(width_scale=0.125, seed=0),
                          ExitsConfiguration.paper_default())
        rng = np.random.default_rng(0)
        images = rng.standard_normal((8, 3, 32, 32))
        labels = rng.integers(0, 10, size=8)
        Trainer(model, TrainConfig(epochs=1, batch_size=8)).fit(images,
                                                                labels)
        assert all(layer._cache is None for layer in model.all_layers())

        model.forward(images[:2])
        assert any(isinstance(layer._cache, tuple)
                   for layer in model.all_layers())
        clone = model.clone()
        assert all(layer._cache is None for layer in clone.all_layers())
        for a, b in zip(model.forward(images[:2]), clone.forward(images[:2])):
            np.testing.assert_array_equal(a, b)

    def test_zero_epochs_noop(self):
        x, y = make_data(30)
        model = make_model()
        before = model.state_dict()
        Trainer(model, TrainConfig(epochs=0)).fit(x, y)
        after = model.state_dict()
        for k in before:
            np.testing.assert_allclose(before[k], after[k])

    def test_custom_joint_loss_must_match(self):
        model = make_model()
        with pytest.raises(ValueError):
            Trainer(model, joint_loss=JointLoss([1.0]))

    def test_augment_called(self):
        x, y = make_data(64)
        model = make_model()
        calls = []

        def augment(batch, rng):
            calls.append(batch.shape[0])
            return batch

        Trainer(model, TrainConfig(epochs=1, batch_size=32)).fit(
            x, y, augment=augment)
        assert sum(calls) == 64

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgdm")

    def test_mismatched_data_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            Trainer(model).fit(np.zeros((4, 6)), np.zeros(3, dtype=int))


class TestEvaluation:
    def test_evaluate_exits_range(self):
        x, y = make_data(50)
        model = make_model()
        model.eval()
        accs = evaluate_exits(model, x, y)
        assert len(accs) == 2
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_cascade_extremes_match_exits(self):
        x, y = make_data(80)
        model = make_model()
        Trainer(model, TrainConfig(epochs=5, lr=0.01)).fit(x, y)
        accs = evaluate_exits(model, x, y)
        low = evaluate_cascade(model, x, y, 0.0)
        assert np.isclose(low["accuracy"], accs[0])
        assert np.isclose(low["exit_rates"][0], 1.0)

    def test_cascade_rates_sum_to_one(self):
        x, y = make_data(50)
        model = make_model()
        model.eval()
        r = evaluate_cascade(model, x, y, 0.6)
        assert np.isclose(sum(r["exit_rates"]), 1.0)

    def test_cascade_sweep_matches_pointwise(self):
        x, y = make_data(70)
        model = make_model()
        Trainer(model, TrainConfig(epochs=3, lr=0.01)).fit(x, y)
        thresholds = [0.0, 0.4, 0.8, 1.0]
        sweep = cascade_sweep(model, x, y, thresholds)
        for point in sweep:
            ref = evaluate_cascade(model, x, y, point["confidence_threshold"])
            assert np.isclose(point["accuracy"], ref["accuracy"])
            np.testing.assert_allclose(point["exit_rates"], ref["exit_rates"])

    def test_cascade_sweep_rejects_bad_threshold(self):
        x, y = make_data(10)
        model = make_model()
        model.eval()
        with pytest.raises(ValueError):
            cascade_sweep(model, x, y, [1.2])


class TestExitScores:
    """The shared forward sweep behind every cascade evaluator."""

    def test_batch_size_invariant(self):
        from repro.nn import exit_scores

        x, y = make_data(60)
        model = make_model()
        model.eval()
        top_a, correct_a = exit_scores(model, x, y, batch_size=256)
        top_b, correct_b = exit_scores(model, x, y, batch_size=7)
        np.testing.assert_array_equal(top_a, top_b)
        np.testing.assert_array_equal(correct_a, correct_b)

    def test_shapes_and_ranges(self):
        from repro.nn import exit_scores

        x, y = make_data(30)
        model = make_model()
        model.eval()
        top, correct = exit_scores(model, x, y)
        assert top.shape == (30, 2) and correct.shape == (30, 2)
        assert correct.dtype == bool
        assert ((top >= 0) & (top <= 1.0 + 1e-12)).all()

    def test_evaluate_cascade_matches_manual_reference(self):
        """evaluate_cascade == the per-sample cascade written out longhand."""
        x, y = make_data(90, seed=5)
        model = make_model(seed=5)
        Trainer(model, TrainConfig(epochs=3, lr=0.01)).fit(x, y)
        from repro.nn import softmax

        outs = model.forward(x)
        probs = [softmax(o) for o in outs]
        for ct in (0.0, 0.5, 0.9):
            taken = np.empty(len(y), dtype=int)
            hit = np.empty(len(y), dtype=bool)
            for i in range(len(y)):
                for e, p in enumerate(probs):
                    last = e == len(probs) - 1
                    if last or p[i].max() >= ct:
                        taken[i] = e
                        hit[i] = p[i].argmax() == y[i]
                        break
            got = evaluate_cascade(model, x, y, ct)
            assert np.isclose(got["accuracy"], hit.mean())
            np.testing.assert_allclose(
                got["exit_rates"],
                np.bincount(taken, minlength=len(probs)) / len(y))

    def test_scoring_releases_caches(self, monkeypatch):
        """Scoring a float model leaves no backward scratch (im2col
        columns, BatchNorm rows, masks) and the same results as a sweep
        that keeps it."""
        from repro.data import make_dataset
        from repro.models import CNVConfig, ExitsConfiguration, build_cnv

        _, test = make_dataset("cifar10", 8, 40, seed=2)
        model = build_cnv(CNVConfig(width_scale=0.125, seed=0),
                          ExitsConfiguration.paper_default())

        def score():
            return (evaluate_exits(model, test.images, test.labels,
                                   batch_size=16),
                    cascade_sweep(model, test.images, test.labels,
                                  [0.0, 0.5, 0.9], batch_size=16))

        got = score()
        assert all(layer._cache is None for layer in model.all_layers())
        with monkeypatch.context() as patch:
            patch.setattr(BranchedModel, "release_caches", lambda self: None)
            kept = score()
            assert any(layer._cache is not None
                       for layer in model.all_layers())
        assert got == kept

    def test_per_exit_accuracy_nan_for_unused_exit(self):
        x, y = make_data(20)
        model = make_model()
        model.eval()
        # Threshold above any reachable confidence: every sample falls
        # through to the final exit.
        r = evaluate_cascade(model, x, y, 1.0 - 1e-12)
        if r["exit_rates"][0] == 0.0:
            assert np.isnan(r["per_exit_accuracy"][0])
        assert not np.isnan(r["per_exit_accuracy"][-1])


class TestStepFootprint:
    """A training step's backward pass consumes each layer's scratch: it
    frees a layer's im2col columns, ``x_hat``, masks and argmax taps as
    soon as that layer's gradients exist, and a convolution frees its
    columns before ``W.T @ g`` allocates their size again. So backward
    needs no memory beyond what forward left, and nothing survives it."""

    @pytest.mark.parametrize("profile,dtype", [
        ("quick", np.float64), ("quick", np.float32),
        ("standard", np.float64)],
        ids=["quick-float64", "quick-float32", "standard-float64"])
    def test_backward_stays_within_the_forward_footprint(self, profile,
                                                         dtype):
        import tracemalloc

        from repro.core import AdaPExConfig
        from repro.models import CNVConfig, ExitsConfiguration, build_cnv

        cfg = AdaPExConfig.quick() if profile == "quick" else AdaPExConfig()
        model = build_cnv(CNVConfig(width_scale=cfg.width_scale, seed=0),
                          ExitsConfiguration.paper_default()).astype(dtype)
        joint_loss = JointLoss.paper_default(model.num_exits)
        rng = np.random.default_rng(0)
        batch = cfg.initial_training.batch_size
        images = rng.standard_normal((batch, 3, 32, 32))
        labels = rng.integers(0, 10, size=batch)
        model.train()
        model.zero_grad()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            outputs = model.forward(images)
            forward_end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, grads, _ = joint_loss(outputs, labels)
            model.backward(grads)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        # The scratch is tens of MB (quick float64: ~72 MB), so a layer
        # that kept its own or allocated a second copy would show.
        assert forward_end - start > 16 * 2**20
        assert backward_peak - forward_end <= 2**20
        assert all(layer._cache is None for layer in model.all_layers())


class TestTrainingIdentity:
    """Training on channel-major activations against the NCHW reference
    kernels (``reference_kernels.install``): trained weights move by
    rounding only, and a toy float64 library has the same bytes either
    way."""

    @staticmethod
    def _fit(exits, dtype):
        from repro.data import make_dataset
        from repro.models import CNVConfig, ExitsConfiguration, build_cnv

        train, _ = make_dataset("cifar10", 128, 8, seed=1)
        model = build_cnv(CNVConfig(width_scale=0.125, seed=0),
                          ExitsConfiguration.paper_default() if exits
                          else None).astype(dtype)
        history = Trainer(model, TrainConfig(epochs=1, batch_size=64,
                                             lr=0.002)).fit(train.images,
                                                            train.labels)
        stats = [a for layer in model.all_layers()
                 if hasattr(layer, "running_mean")
                 for a in (layer.running_mean, layer.running_var)]
        return model.state_dict(), stats, history

    @pytest.mark.parametrize("exits,dtype", [
        (True, np.float64), (False, np.float64), (True, np.float32)],
        ids=["exits-float64", "backbone-float64", "exits-float32"])
    def test_matches_reference_kernels(self, monkeypatch, exits, dtype):
        from tests.nn import reference_kernels

        state, stats, history = self._fit(exits, dtype)
        with monkeypatch.context() as patch:
            reference_kernels.install(patch)
            ref_state, ref_stats, ref_history = self._fit(exits, dtype)

        assert state.keys() == ref_state.keys()
        assert all(v.dtype == np.dtype(dtype) for v in state.values())
        assert len(stats) == len(ref_stats) > 0
        if dtype == np.float64:
            weight_rtol, stats_atol, loss_rtol = 1e-12, 1e-6, 1e-12
        else:
            # float32 rounding, amplified by Adam's normalized steps,
            # moves weights by ~3e-4 of their largest magnitude.
            weight_rtol, stats_atol, loss_rtol = 1e-3, 5e-3, 1e-5
        for key in state:
            want = ref_state[key]
            if key.endswith(".bias"):
                # Every bias but the classifiers' feeds a training-mode
                # BatchNorm: its true gradient is zero, and Adam steps
                # on the rounding noise of either layout's sums (in
                # float32 that noise passes Adam's eps: steps of ~lr).
                if dtype == np.float32:
                    continue
                tol = 1e-6
            else:
                tol = weight_rtol * np.abs(want).max()
            np.testing.assert_allclose(state[key], want, rtol=0, atol=tol,
                                       err_msg=key)
        # The running means take in the biases' noise.
        for a, b in zip(stats, ref_stats):
            np.testing.assert_allclose(a, b, rtol=0, atol=stats_atol)
        np.testing.assert_allclose(history.joint_loss,
                                   ref_history.joint_loss, rtol=loss_rtol)
        assert history.train_accuracy == ref_history.train_accuracy

    def test_library_bytes_match_nchw_reference(self, monkeypatch):
        """Base training, pruning, retraining and characterization of a
        toy float64 sweep: the library JSON is byte-identical.

        This holds because the discrete decisions of training see the
        same values in both layouts: BatchNorm takes each channel's row
        mean in both (a pre-activation within an ulp of its channel's
        mean, common with quantized codes, gets the same rounding-noise
        ``x_hat`` and so the same QuantReLU STE mask),
        and both conv GEMMs sum each output over the same ``(C, ki, kj)``
        order. The weights still drift apart by ~1e-15 through the
        backward sums, which moves no mask, quantization level, pruning
        rank or prediction here. A failure means a near-tie was decided
        differently: the entry diff shows where."""
        from repro.core import AdaPExConfig, LibraryGenerator
        from tests.nn import reference_kernels

        def library():
            cfg = AdaPExConfig.quick(seed=3)
            cfg.train_samples = 192
            cfg.test_samples = 96
            cfg.pruning_rates = [0.0, 0.4]
            cfg.confidence_thresholds = [0.3, 0.6, 0.9]
            cfg.include_not_pruned_exits = False
            cfg.retraining.epochs = 1
            return LibraryGenerator(cfg).generate().to_json()

        got = library()
        with monkeypatch.context() as patch:
            reference_kernels.install(patch)
            want = library()
        assert json.loads(got)["entries"] == json.loads(want)["entries"]
        assert got == want
