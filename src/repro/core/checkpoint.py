"""Sweep checkpoint manifest: crash-safe progress record of a sweep.

The per-design-point cache (:mod:`repro.core.pointcache`) already makes
completed work *reusable*; the manifest makes the sweep's *state*
explicit. One JSON file next to the point cache records, per design
point, whether it is ``pending``, ``done``, ``failed`` (exhausted its
retry budget — retried on the next resume), or ``quarantined``
(permanently infeasible — skipped on resume, surfaced as a library gap).

Every save is an atomic write-temp-rename, so a sweep killed at any
instant leaves a readable manifest. A sweep saves it when a stage
starts, on each failure and when the stage ends (normally or by an
exception); in between, a completed point's record is its point-cache
file, and a resume marks every cached point done. ``repro-adapex
generate --resume`` (or simply rerunning with the same ``--point-cache``)
continues from exactly where the previous run stopped, recomputing
nothing that completed. The manifest is salted with the config's
``point_cache_key()``: a manifest written under different sweep
semantics is discarded, never trusted.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from .supervise import FailedPoint

__all__ = ["SweepManifest", "STATUSES"]

log = logging.getLogger(__name__)

# On-disk format version; bump on shape changes.
_MANIFEST_FORMAT = 1

STATUSES = ("pending", "done", "failed", "quarantined")


class SweepManifest:
    """Per-point status ledger of one design-time sweep."""

    def __init__(self, path, config_key: str, points: dict | None = None):
        self.path = Path(path)
        self.config_key = config_key
        # point key -> {"variant", "pruned_exits", "rate", "status",
        #               "failure": FailedPoint-dict | None}
        self.points: dict[str, dict] = dict(points or {})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path, config_key: str) -> "SweepManifest":
        """Load the manifest at ``path`` or start a fresh one.

        A missing, corrupt, or differently-keyed manifest yields a fresh
        (empty) one — stale state is discarded, never half-trusted.
        """
        path = Path(path)
        try:
            with open(path) as f:
                raw = json.load(f)
            if not isinstance(raw, dict):
                raise ValueError("manifest root must be an object")
            if raw.get("format") != _MANIFEST_FORMAT:
                raise ValueError(f"unsupported format {raw.get('format')!r}")
            points = raw["points"]
            if not isinstance(points, dict):
                raise ValueError("manifest points must be an object")
            for key, rec in points.items():
                if not isinstance(rec, dict):
                    raise ValueError(
                        f"point {key}: record must be an object, got "
                        f"{type(rec).__name__}")
                if rec.get("status") not in STATUSES:
                    raise ValueError(
                        f"point {key}: bad status {rec.get('status')!r}")
        except FileNotFoundError:
            return cls(path, config_key)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("sweep manifest %s is unreadable (%s: %s); "
                        "starting fresh", path, type(exc).__name__, exc)
            return cls(path, config_key)
        if raw.get("config_key") != config_key:
            log.info("sweep manifest %s belongs to a different sweep "
                     "config; starting fresh", path)
            return cls(path, config_key)
        return cls(path, config_key, points)

    def save(self) -> None:
        """Atomically persist the manifest (write temp + rename)."""
        payload = {"format": _MANIFEST_FORMAT,
                   "config_key": self.config_key,
                   "points": self.points}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def ensure(self, key: str, variant: str, pruned_exits: bool,
               rate: float, precision: str = "base",
               criterion: str = "l1", schedule: str = "hard",
               fidelity: str = "full") -> None:
        """Register a point as ``pending`` if it has no record yet."""
        if key not in self.points:
            rec = {"variant": variant,
                   "pruned_exits": bool(pruned_exits),
                   "rate": rate, "status": "pending",
                   "failure": None}
            # Non-default axes only: keeps old manifests byte-compatible.
            if precision != "base":
                rec["precision"] = precision
            if criterion != "l1":
                rec["criterion"] = criterion
            if schedule != "hard":
                rec["schedule"] = schedule
            if fidelity != "full":
                rec["fidelity"] = fidelity
            self.points[key] = rec

    def mark(self, key: str, status: str,
             failure: FailedPoint | None = None) -> None:
        """Transition one point; ``failure`` annotates failed/quarantined."""
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        rec = self.points[key]
        rec["status"] = status
        rec["failure"] = failure.to_dict() if failure is not None else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def status(self, key: str) -> str | None:
        rec = self.points.get(key)
        return rec["status"] if rec is not None else None

    def failure(self, key: str) -> FailedPoint | None:
        rec = self.points.get(key)
        if rec is None or rec.get("failure") is None:
            return None
        return FailedPoint.from_dict(rec["failure"])

    def counts(self) -> dict:
        """Points per status (every status present, possibly 0)."""
        out = {status: 0 for status in STATUSES}
        for rec in self.points.values():
            out[rec["status"]] += 1
        return out

    def keys_with_status(self, *statuses: str) -> list:
        return [key for key, rec in self.points.items()
                if rec["status"] in statuses]

    def summary(self) -> str:
        counts = self.counts()
        parts = ", ".join(f"{counts[s]} {s}" for s in STATUSES
                          if counts[s])
        return (f"sweep manifest: {len(self.points)} point(s)"
                + (f" ({parts})" if parts else ""))

    def __len__(self) -> int:
        return len(self.points)
