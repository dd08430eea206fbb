"""Synthetic datasets (CIFAR-10 / GTSRB substitutes) and augmentation."""

from .augment import (
    compose,
    gaussian_noise,
    random_flip,
    random_shift,
    standard_augmentation,
)
from .synthetic import (
    Dataset,
    DatasetSpec,
    SyntheticImageGenerator,
    cifar10_like,
    gtsrb_like,
    make_dataset,
)

__all__ = [
    "compose", "gaussian_noise", "random_flip", "random_shift",
    "standard_augmentation",
    "Dataset", "DatasetSpec", "SyntheticImageGenerator",
    "cifar10_like", "gtsrb_like", "make_dataset",
]
