"""Dataflow-aware pruning constraints.

FINN dataflow accelerators fold each layer's compute onto ``PE``
processing elements and ``SIMD`` input lanes; correct feeding and
synchronization require that (paper, Sec. IV-A2):

* ``(ch_out_i - r_i) mod PE_i == 0`` — the surviving filter count of layer
  *i* must divide evenly over that layer's PEs, and
* ``(ch_out_i - r_i) mod SIMD_{i+1} == 0`` — the surviving channels must
  divide evenly over the *next* layer's SIMD lanes.

When a requested pruning amount violates the constraints, the procedure
iteratively decreases ``r_i`` until both hold (always terminates: r=0
satisfies them whenever the unpruned network was valid).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import PermanentError

__all__ = ["LayerFoldConstraint", "PruningError", "adjust_removal",
           "requested_removal"]


class PruningError(PermanentError, ValueError):
    """The model cannot be pruned as requested (structural or folding
    infeasibility). Deterministic, so supervision quarantines the design
    point instead of retrying it. Also a ``ValueError`` for pre-taxonomy
    callers."""


@dataclass(frozen=True)
class LayerFoldConstraint:
    """Folding figures that constrain pruning of one CONV layer.

    ``pe`` is the layer's own PE count; ``simd_next`` is the SIMD width of
    the consumer layer (1 if the consumer imposes no constraint, e.g. the
    final classifier).
    """

    pe: int = 1
    simd_next: int = 1

    def __post_init__(self):
        if self.pe < 1 or self.simd_next < 1:
            raise ValueError("pe and simd_next must be >= 1")

    def validate_unpruned(self, ch_out: int, layer: str = "layer") -> None:
        """The user's folding must already divide the unpruned layer.

        Raises :class:`PruningError` naming ``layer``: the same folding
        fails the same way on every attempt.
        """
        if ch_out % self.pe:
            raise PruningError(
                f"{layer}: PE={self.pe} does not divide ch_out={ch_out}"
            )
        if ch_out % self.simd_next:
            raise PruningError(
                f"{layer}: next-layer SIMD={self.simd_next} does not divide "
                f"ch_out={ch_out}"
            )


def requested_removal(ch_out: int, rate: float) -> int:
    """Number of filters a pruning rate asks to remove (floor)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("pruning rate must be in [0, 1)")
    return int(ch_out * rate)


def adjust_removal(ch_out: int, requested: int,
                   constraint: LayerFoldConstraint,
                   layer: str = "layer") -> int:
    """Largest feasible removal count <= ``requested``.

    Implements the paper's iterative decrease: r is lowered until the
    surviving channel count divides both PE and the next layer's SIMD.
    At least one full PE/SIMD group always survives.
    """
    if requested < 0:
        raise ValueError("requested removal must be >= 0")
    constraint.validate_unpruned(ch_out, layer)
    r = min(requested, ch_out - 1)
    while r > 0:
        remaining = ch_out - r
        if remaining % constraint.pe == 0 and remaining % constraint.simd_next == 0:
            return r
        r -= 1
    return 0
