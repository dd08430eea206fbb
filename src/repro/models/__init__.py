"""Model zoo: CNV (FINN's VGG-like reference CNN) and early-exit tooling."""

from .cnv import CNVConfig, build_cnv, scaled_width
from .exits import ExitSpec, ExitsConfiguration, build_exit_branch

__all__ = [
    "CNVConfig", "build_cnv", "scaled_width",
    "ExitSpec", "ExitsConfiguration", "build_exit_branch",
]
