"""Procedural image-classification datasets (CIFAR-10 / GTSRB substitutes).

The real datasets are unavailable offline, but none of the paper's claims
depend on their pixel statistics — they depend on two structural
properties that this generator reproduces explicitly:

1. a spectrum of *easy* and *hard* inputs, so that a shallow early exit can
   confidently classify part of the test set (the property BranchyNet-style
   early exit exploits), and
2. class structure at two spatial scales: a coarse, low-frequency
   *prototype* visible to shallow layers, and a fine, high-frequency
   *signature* that only deeper layers can integrate. Hard samples blend
   their coarse appearance toward a distractor class while keeping the
   fine signature correct, so depth genuinely buys accuracy.

``cifar10_like`` produces 10 classes and ``gtsrb_like`` 43 classes at the
paper's 3x32x32 resolution (GTSRB images are rescaled to CIFAR resolution
in the paper as well).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DatasetSpec", "Dataset", "SyntheticImageGenerator",
           "cifar10_like", "gtsrb_like", "make_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of a synthetic dataset family."""

    name: str
    num_classes: int
    image_shape: tuple = (3, 32, 32)
    noise_std: float = 0.25
    hard_fraction: float = 0.45
    distractor_blend: float = 0.55
    fine_amplitude: float = 0.6
    seed: int = 1234

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.image_shape) != 3:
            raise ValueError("image_shape must be (C, H, W)")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise ValueError("hard_fraction must be in [0, 1]")
        if not 0.0 <= self.distractor_blend < 1.0:
            raise ValueError("distractor_blend must be in [0, 1)")


@dataclass
class Dataset:
    """A realized split: images in NCHW float32, integer labels, difficulty."""

    images: np.ndarray
    labels: np.ndarray
    difficulty: np.ndarray  # per-sample in [0, 1]; 0 = easiest
    spec: DatasetSpec = field(repr=False, default=None)

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must align")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes if self.spec else int(self.labels.max()) + 1

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices],
                       self.difficulty[indices], self.spec)


def _smooth_noise(rng: np.random.Generator, shape: tuple, coarse: int) -> np.ndarray:
    """Low-frequency random field: coarse noise upsampled to full size."""
    c, h, w = shape
    small = rng.normal(size=(c, coarse, coarse))
    reps_h = int(np.ceil(h / coarse))
    reps_w = int(np.ceil(w / coarse))
    up = np.repeat(np.repeat(small, reps_h, axis=1), reps_w, axis=2)[:, :h, :w]
    # Light box blur to remove the blocky edges.
    blurred = up.copy()
    blurred[:, 1:, :] += up[:, :-1, :]
    blurred[:, :-1, :] += up[:, 1:, :]
    blurred[:, :, 1:] += up[:, :, :-1]
    blurred[:, :, :-1] += up[:, :, 1:]
    return blurred / 5.0


class SyntheticImageGenerator:
    """Draws class prototypes once, then samples arbitrarily many images."""

    def __init__(self, spec: DatasetSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        shape = spec.image_shape
        self.coarse_prototypes = np.stack(
            [_smooth_noise(rng, shape, coarse=4) for _ in range(spec.num_classes)]
        )
        self.fine_signatures = np.stack(
            [rng.normal(size=shape) * spec.fine_amplitude
             for _ in range(spec.num_classes)]
        )
        # Normalize prototypes to unit RMS so difficulty is comparable
        for bank in (self.coarse_prototypes, self.fine_signatures):
            rms = np.sqrt((bank ** 2).mean(axis=(1, 2, 3), keepdims=True))
            bank /= np.maximum(rms, 1e-8)
        self.fine_signatures *= spec.fine_amplitude

    def sample(self, n: int, seed: int) -> Dataset:
        """Generate ``n`` labelled images with a fresh RNG stream."""
        spec = self.spec
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, spec.num_classes, size=n)
        difficulty = rng.uniform(0.0, 1.0, size=n)
        hard = difficulty < spec.hard_fraction
        # Remap so difficulty==0 is easiest: easy samples sit in (hard_fraction, 1]
        # before remap; normalize to a clean [0, 1] easiness-to-hardness scale.
        difficulty = np.where(
            hard,
            0.5 + 0.5 * (spec.hard_fraction - difficulty) / max(spec.hard_fraction, 1e-9),
            0.5 * (1.0 - (difficulty - spec.hard_fraction)
                   / max(1.0 - spec.hard_fraction, 1e-9)),
        )

        distractors = (labels + rng.integers(1, spec.num_classes, size=n)) \
            % spec.num_classes
        images = np.empty((n,) + spec.image_shape, dtype=np.float64)
        for i in range(n):
            y = labels[i]
            coarse = self.coarse_prototypes[y]
            if hard[i]:
                blend = spec.distractor_blend
                coarse = (1 - blend) * coarse \
                    + blend * self.coarse_prototypes[distractors[i]]
            noise_scale = spec.noise_std * (0.5 + difficulty[i])
            images[i] = (
                coarse
                + self.fine_signatures[y]
                + rng.normal(scale=noise_scale, size=spec.image_shape)
            )
        images = np.clip(images, -3.0, 3.0).astype(np.float32)
        return Dataset(images, labels.astype(np.int64), difficulty, spec)

    def splits(self, train: int, test: int, seed: int = 0):
        """Disjoint train/test splits from independent RNG streams."""
        return self.sample(train, seed=seed * 2 + 11), \
            self.sample(test, seed=seed * 2 + 12)


def cifar10_like(noise_std: float = 0.25, seed: int = 1234) -> DatasetSpec:
    """10-class dataset standing in for CIFAR-10 (3x32x32)."""
    return DatasetSpec(name="cifar10-like", num_classes=10,
                       noise_std=noise_std, seed=seed)


def gtsrb_like(noise_std: float = 0.32, seed: int = 4321) -> DatasetSpec:
    """43-class dataset standing in for GTSRB at CIFAR resolution.

    More classes plus slightly higher noise reproduce the paper's lower
    absolute accuracy on GTSRB (~70 % vs ~89 % on CIFAR-10 for the
    unpruned CNV-W2A2).
    """
    return DatasetSpec(name="gtsrb-like", num_classes=43,
                       noise_std=noise_std, hard_fraction=0.5, seed=seed)


def make_dataset(name: str, train: int, test: int, seed: int = 0):
    """Convenience factory: ``(train_split, test_split)`` by dataset name."""
    specs = {"cifar10": cifar10_like(), "gtsrb": gtsrb_like()}
    key = name.lower().replace("-like", "").replace("_like", "")
    if key not in specs:
        raise ValueError(f"unknown dataset {name!r}; options: {sorted(specs)}")
    return SyntheticImageGenerator(specs[key]).splits(train, test, seed=seed)
