"""Baseline runtime policies the paper evaluates AdaPEx against.

* **FINNStatic** — the original FINN accelerator: one bitstream (the
  unpruned, no-exit CNN), no runtime adaptation at all.
* **PROnly** — the runtime selection of Sec. IV-B but over single-exit
  (no early exit) pruned models: only the pruning rate adapts, each
  change costing a reconfiguration.
* **CTOnly** — a not-pruned early-exit model where only the confidence
  threshold adapts (never reconfigures).

All baselines expose the same interface as
:class:`~repro.runtime.manager.RuntimeManager` so the edge simulator can
drive any of them interchangeably.
"""

from __future__ import annotations

from .library import Library, LibraryEntry
from .manager import RuntimeManager, SelectionPolicy

__all__ = ["AdaPEx", "FINNStatic", "PROnly", "CTOnly", "make_policy",
           "policy_class"]


class FINNStatic:
    """No adaptation: always the unpruned, exit-free accelerator."""

    name = "FINN"

    def __init__(self, library: Library,
                 policy: SelectionPolicy | None = None):
        candidates = [e for e in library
                      if e.accelerator.variant == "backbone"
                      and e.accelerator.pruning_rate == 0.0]
        if not candidates:
            raise ValueError("library has no unpruned backbone entry")
        # The backbone model has a single exit; any threshold is equivalent.
        self._entry = candidates[0]

    def select(self, workload_ips: float,
               current: LibraryEntry | None = None) -> LibraryEntry:
        return self._entry

    def requires_reconfiguration(self, current, selected) -> bool:
        return current is None or current.accelerator != selected.accelerator


class PROnly(RuntimeManager):
    """Adapts pruning rate only, over no-early-exit models."""

    name = "PR-Only"

    def __init__(self, library: Library,
                 policy: SelectionPolicy | None = None):
        filtered = library.filtered(
            lambda e: e.accelerator.variant == "backbone")
        if len(filtered) == 0:
            raise ValueError("library has no backbone (no-exit) entries")
        super().__init__(filtered, policy)


class CTOnly(RuntimeManager):
    """Adapts the confidence threshold only, on the unpruned exit model."""

    name = "CT-Only"

    def __init__(self, library: Library,
                 policy: SelectionPolicy | None = None):
        filtered = library.filtered(
            lambda e: e.accelerator.variant == "ee"
            and e.accelerator.pruning_rate == 0.0)
        if len(filtered) == 0:
            raise ValueError("library has no unpruned early-exit entries")
        super().__init__(filtered, policy)


class AdaPEx(RuntimeManager):
    """The full co-optimized policy (alias with a display name)."""

    name = "AdaPEx"

    def __init__(self, library: Library,
                 policy: SelectionPolicy | None = None):
        filtered = library.filtered(lambda e: e.accelerator.variant == "ee")
        if len(filtered) == 0:
            raise ValueError("library has no early-exit entries")
        super().__init__(filtered, policy)


_POLICIES = {
    "adapex": AdaPEx,
    "finn": FINNStatic,
    "pr-only": PROnly,
    "ct-only": CTOnly,
}


def policy_class(name: str):
    """Policy class by case-insensitive name (``ValueError`` if unknown)."""
    key = name.lower().replace("_", "-")
    if key not in _POLICIES:
        raise ValueError(f"unknown policy {name!r}; options: {sorted(_POLICIES)}")
    return _POLICIES[key]


def make_policy(name: str, library: Library,
                policy: SelectionPolicy | None = None):
    """Factory: policy object by case-insensitive name."""
    return policy_class(name)(library, policy)
