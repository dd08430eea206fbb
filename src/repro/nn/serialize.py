"""Model weight snapshots.

Snapshots a :class:`~repro.nn.BranchedModel`'s parameters (plus
BatchNorm running statistics) as a dict of NumPy arrays. Only weights are
stored — the architecture is rebuilt by the caller (e.g.
:func:`repro.models.build_cnv` with the same config), mirroring the
PyTorch ``state_dict`` convention the paper's toolchain uses.
"""

from __future__ import annotations

from .graph import BranchedModel
from .layers import BatchNorm

__all__ = ["state_arrays", "load_state_arrays"]

_BN_PREFIX = "__bnstat__"


def _bn_entries(model: BranchedModel):
    for si, seg in enumerate(model.segments):
        for li, layer in enumerate(seg.layers):
            if isinstance(layer, BatchNorm):
                yield f"seg{si}.l{li}", layer
    for ei, branch in model.exits.items():
        for li, layer in enumerate(branch.layers):
            if isinstance(layer, BatchNorm):
                yield f"exit{ei}.l{li}", layer


def state_arrays(model: BranchedModel) -> dict:
    """Full in-memory snapshot: parameters plus BN running statistics.

    The returned dict of NumPy arrays is picklable and, restored via
    :func:`load_state_arrays` into an identically built model, makes it
    bit-identical to the source — the contract the parallel design-time
    backend relies on when shipping trained base weights to workers.
    """
    arrays = {k: v.copy() for k, v in model.state_dict().items()}
    for key, bn in _bn_entries(model):
        arrays[f"{_BN_PREFIX}{key}.running_mean"] = bn.running_mean.copy()
        arrays[f"{_BN_PREFIX}{key}.running_var"] = bn.running_var.copy()
    return arrays


def load_state_arrays(model: BranchedModel, arrays: dict) -> BranchedModel:
    """Restore a :func:`state_arrays` snapshot into ``model`` (in place).

    The model must have been built with the identical architecture;
    missing parameters or mismatched shapes raise ``ValueError``.
    """
    state = {k: v for k, v in arrays.items()
             if not k.startswith(_BN_PREFIX)}
    expected = model.state_dict()
    missing = set(expected) - set(state)
    if missing:
        raise ValueError(f"checkpoint is missing parameters: "
                         f"{sorted(missing)[:5]}...")
    for key, value in state.items():
        if key in expected and expected[key].shape != value.shape:
            raise ValueError(
                f"shape mismatch for {key}: model {expected[key].shape}, "
                f"checkpoint {value.shape}")
    model.load_state_dict(state)
    for key, bn in _bn_entries(model):
        mean = arrays.get(f"{_BN_PREFIX}{key}.running_mean")
        var = arrays.get(f"{_BN_PREFIX}{key}.running_var")
        if mean is not None:
            bn.running_mean = mean.copy()
        if var is not None:
            bn.running_var = var.copy()
    return model
