"""Per-design-point on-disk cache for the Library sweep.

The whole-library JSON cache (``AdaPExFramework.build_library``) is
all-or-nothing: interrupting the sweep, adding one pruning rate, or
bumping the run count throws away every previously characterized design
point. This cache stores each point — the list of
:class:`~repro.runtime.library.LibraryEntry` produced for one
``(config, variant, pruned_exits, rate)`` — as its own JSON file, so
incremental or interrupted sweeps only recompute what changed.

Keys are salted with ``AdaPExConfig.cache_key()``, which already folds in
the flow version and every semantic knob; bumping ``_FLOW_VERSION`` in
:mod:`repro.core.config` invalidates every point at once. Writes are
atomic (temp file + ``os.replace``), so concurrent sweeps sharing a
cache directory never observe half-written points.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path

from ..runtime.library import LibraryEntry

__all__ = ["PointCache"]

log = logging.getLogger(__name__)

# Bump if the on-disk point format itself changes shape.
_POINT_FORMAT = 1


class PointCache:
    """Directory of per-design-point JSON files."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def point_key(config_key: str, variant: str, pruned_exits: bool,
                  rate: float, precision: str = "base",
                  criterion: str = "l1", schedule: str = "hard",
                  fidelity: str = "full") -> str:
        """Stable fingerprint of one design point.

        ``precision``, ``criterion``, ``schedule`` and ``fidelity`` salt
        the key only when they differ from their historical defaults
        (trained-base precision, l1 ranking, hard prune-then-retrain,
        full training budget), so every pre-axis cache file keeps
        hitting — and an INT8/FPGM/PSFP/partial-fidelity point can never
        collide with a default one. ``fidelity`` is the successive-
        halving rung tag (e.g. ``"e4"`` for a 4-epoch checkpoint): rung
        artifacts live beside full-budget points without ever aliasing
        them.
        """
        blob = f"{_POINT_FORMAT}:{config_key}:{variant}:" \
               f"{int(bool(pruned_exits))}:{rate!r}"
        if precision != "base":
            blob += f":{precision}"
        if criterion != "l1":
            blob += f":c={criterion}"
        if schedule != "hard":
            blob += f":s={schedule}"
        if fidelity != "full":
            blob += f":f={fidelity}"
        return hashlib.sha256(blob.encode()).hexdigest()[:20]

    def path_for(self, key: str) -> Path:
        return self.root / f"point_{key}.json"

    def aux_path_for(self, key: str) -> Path:
        return self.root / f"aux_{key}.json"

    def state_path_for(self, key: str) -> Path:
        """Weight-checkpoint sidecar (.npz) for a partial-fidelity point."""
        states = self.root / "states"
        states.mkdir(exist_ok=True)
        return states / f"state_{key}.npz"

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, key: str):
        """Entries for ``key``, or ``None`` on a miss.

        A file that exists but no longer parses or validates is also a
        miss (the point is simply recomputed), but — unlike a clean miss
        — it is loudly logged with the cache key so silent corruption
        does not masquerade as a cold cache. ``purge_corrupt()`` removes
        such files wholesale.
        """
        path = self.path_for(key)
        try:
            with open(path) as f:
                raw = json.load(f)
            entries = [LibraryEntry.from_dict(d) for d in raw["entries"]]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("point cache entry %s (%s) is corrupt — "
                        "%s: %s — treating as a miss", key, path,
                        type(exc).__name__, exc)
            self.misses += 1
            return None
        self.hits += 1
        return entries

    def put(self, key: str, entries) -> None:
        """Atomically store the entries for ``key``."""
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        # One json.dumps call runs the C encoder; json.dump streams
        # through the pure-Python one. Same bytes.
        with open(tmp, "w") as f:
            f.write(json.dumps({"entries": [e.to_dict() for e in entries]}))
        os.replace(tmp, path)

    def get_aux(self, key: str):
        """Auxiliary JSON payload for ``key`` (halving rung scores), or
        ``None`` on a miss or corruption (logged, like :meth:`get`)."""
        path = self.aux_path_for(key)
        try:
            with open(path) as f:
                return json.load(f)["payload"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("aux cache entry %s (%s) is corrupt — %s: %s — "
                        "treating as a miss", key, path,
                        type(exc).__name__, exc)
            return None

    def put_aux(self, key: str, payload) -> None:
        """Atomically store a JSON-serializable payload for ``key``."""
        path = self.aux_path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            f.write(json.dumps({"payload": payload}))
        os.replace(tmp, path)

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return len(list(self.root.glob("point_*.json")))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cached point (plus aux/state sidecars); returns
        how many point files were removed."""
        removed = 0
        for path in self.root.glob("point_*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("aux_*.json"):
            path.unlink(missing_ok=True)
        for path in self.root.glob("states/state_*.npz"):
            path.unlink(missing_ok=True)
        return removed

    def purge_corrupt(self) -> int:
        """Delete every cached point that no longer parses or validates;
        returns how many files were removed."""
        removed = 0
        for path in sorted(self.root.glob("point_*.json")):
            try:
                with open(path) as f:
                    raw = json.load(f)
                for d in raw["entries"]:
                    LibraryEntry.from_dict(d)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                log.warning("purging corrupt point cache file %s "
                            "(%s: %s)", path, type(exc).__name__, exc)
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def evict(self, keep_latest: int) -> int:
        """Keep only the ``keep_latest`` most recently touched points."""
        if keep_latest < 0:
            raise ValueError("keep_latest must be >= 0")
        paths = sorted(self.root.glob("point_*.json"),
                       key=lambda p: p.stat().st_mtime, reverse=True)
        removed = 0
        for path in paths[keep_latest:]:
            path.unlink(missing_ok=True)
            removed += 1
        return removed
