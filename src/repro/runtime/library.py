"""The AdaPEx Library: the design-time artifact the runtime searches.

The Library is "a table containing a list of pruned early-exit CNNs
(rows) with their accuracy as well as throughput values" (paper, Sec.
IV-A), extended here with the power/energy figures the evaluation needs.
One :class:`LibraryEntry` describes one operating point: a concrete
accelerator (identified by pruning rate and exit-pruning mode — switching
accelerators costs an FPGA reconfiguration) at one confidence threshold
(free to change at runtime).

Persistence is integrity-checked: the JSON carries a schema version and
a content checksum, every entry field is validated on load, and
:meth:`Library.load` can either fail closed (``strict=True``, the
default — raises :class:`~repro.core.errors.IntegrityError`) or salvage
what survives from a truncated/corrupt file (``strict=False``), with the
damage itemized in the attached :class:`LoadReport`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field

from ..core.errors import IntegrityError

__all__ = ["AcceleratorId", "LibraryEntry", "Library", "LoadReport",
           "SCHEMA_VERSION"]

# On-disk library format. 1 = the original {metadata, entries} shape
# (still readable); 2 adds the schema/checksum envelope.
SCHEMA_VERSION = 2


@dataclass(frozen=True, order=True)
class AcceleratorId:
    """Identity of one synthesized bitstream.

    Two entries with the same ``AcceleratorId`` can be switched between
    for free (only the host-side confidence threshold changes); different
    ids require reconfiguring the FPGA.
    """

    pruning_rate: float
    pruned_exits: bool = True
    variant: str = "ee"  # "ee" = early-exit model, "backbone" = no exits
    # Precision axis: "base" = the trained QuantSpec (paper W2A2); other
    # names (e.g. "int8") are post-training-quantized variants — a
    # different bitstream, hence part of the identity.
    precision: str = "base"
    # Pruning-criterion axis: which filter ranking selected the surviving
    # channels ("l1" = the paper's magnitude ranking). Different criteria
    # keep different filters, hence different bitstreams.
    criterion: str = "l1"
    # Retraining-schedule axis: "hard" = prune-then-retrain, "psfp" =
    # progressive soft filter pruning. Same widths, different weights —
    # still a different bitstream.
    schedule: str = "hard"

    def label(self) -> str:
        mode = "px" if self.pruned_exits else "npx"
        label = (f"{self.variant}-pr"
                 f"{int(round(self.pruning_rate * 100)):02d}-{mode}")
        if self.precision != "base":
            label += f"-{self.precision}"
        if self.criterion != "l1":
            label += f"-{self.criterion}"
        if self.schedule != "hard":
            label += f"-{self.schedule}"
        return label


@dataclass(frozen=True)
class LibraryEntry:
    """One (accelerator, confidence threshold) operating point."""

    accelerator: AcceleratorId
    confidence_threshold: float
    accuracy: float
    exit_rates: tuple
    latency_s: float
    serving_ips: float
    energy_per_inference_j: float
    power_idle_w: float
    power_busy_w: float
    achieved_pruning_rate: float = 0.0
    exit_latencies_s: tuple = ()
    resources: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def service_latency_s(self, exit_idx: int) -> float:
        """Latency of one inference that takes the given exit."""
        if self.exit_latencies_s:
            return self.exit_latencies_s[exit_idx]
        return self.latency_s

    def power_at(self, arrival_ips: float) -> float:
        """Board power at a given served rate (linear idle-busy blend)."""
        if self.serving_ips <= 0:
            return self.power_idle_w
        util = min(arrival_ips / self.serving_ips, 1.0)
        return self.power_idle_w + util * (self.power_busy_w - self.power_idle_w)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["accelerator"] = asdict(self.accelerator)
        # Keep the serialized form (and everything pinned to it: golden
        # traces, point caches, library JSON) unchanged for entries on the
        # historical defaults of each axis (base precision, l1 criterion,
        # hard schedule).
        if d["accelerator"].get("precision") == "base":
            del d["accelerator"]["precision"]
        if d["accelerator"].get("criterion") == "l1":
            del d["accelerator"]["criterion"]
        if d["accelerator"].get("schedule") == "hard":
            del d["accelerator"]["schedule"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LibraryEntry":
        """Rebuild an entry from its dict form.

        Raises :class:`~repro.core.errors.IntegrityError` (never a bare
        ``KeyError``/``TypeError``) when a field is missing, mistyped,
        or unknown, naming the offending field.
        """
        _validate_entry_dict(d)
        d = dict(d)
        d["accelerator"] = AcceleratorId(**d["accelerator"])
        d["exit_rates"] = tuple(d["exit_rates"])
        d["exit_latencies_s"] = tuple(d.get("exit_latencies_s", ()))
        return cls(**d)


# ----------------------------------------------------------------------
# entry validation
# ----------------------------------------------------------------------
_ENTRY_REQUIRED = {
    "accelerator": "object",
    "confidence_threshold": "number",
    "accuracy": "number",
    "exit_rates": "number list",
    "latency_s": "number",
    "serving_ips": "number",
    "energy_per_inference_j": "number",
    "power_idle_w": "number",
    "power_busy_w": "number",
}
_ENTRY_OPTIONAL = {
    "achieved_pruning_rate": "number",
    "exit_latencies_s": "number list",
    "resources": "object",
    "extra": "object",
}
_ACCEL_REQUIRED = {"pruning_rate": "number"}
_ACCEL_OPTIONAL = {"pruned_exits": "bool", "variant": "str",
                   "precision": "str", "criterion": "str",
                   "schedule": "str"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPE_CHECKS = {
    "number": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    "number list": lambda v: isinstance(v, (list, tuple))
    and all(_is_number(x) for x in v),
}


def _check_fields(d: dict, required: dict, optional: dict,
                  where: str = "") -> None:
    for name, kind in required.items():
        if name not in d:
            raise IntegrityError(f"missing field {where}{name!r}")
        if not _TYPE_CHECKS[kind](d[name]):
            raise IntegrityError(
                f"field {where}{name!r} must be a {kind}, got "
                f"{type(d[name]).__name__} ({d[name]!r})")
    for name, kind in optional.items():
        if name in d and not _TYPE_CHECKS[kind](d[name]):
            raise IntegrityError(
                f"field {where}{name!r} must be a {kind}, got "
                f"{type(d[name]).__name__} ({d[name]!r})")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise IntegrityError(
            f"unknown field(s) {sorted(unknown)}"
            + (f" in {where.rstrip('.')}" if where else ""))


def _validate_entry_dict(d) -> None:
    """Field-level validation of one serialized LibraryEntry."""
    if not isinstance(d, dict):
        raise IntegrityError(
            f"entry must be an object, got {type(d).__name__}")
    _check_fields(d, _ENTRY_REQUIRED, _ENTRY_OPTIONAL)
    _check_fields(d["accelerator"], _ACCEL_REQUIRED, _ACCEL_OPTIONAL,
                  where="accelerator.")


@dataclass
class LoadReport:
    """What :meth:`Library.from_json` found while reading a file."""

    schema: int | None = None
    checksum_ok: bool | None = None  # None = no checksum to verify
    # True when the entry scanner ran: the file was unparseable or
    # root-level-damaged JSON, not a normal structured load.
    salvaged: bool = False
    dropped: list = field(default_factory=list)  # (entry_index, reason)
    loaded: int = 0

    @property
    def intact(self) -> bool:
        return (not self.salvaged and not self.dropped
                and self.checksum_ok is not False)

    def summary(self) -> str:
        if self.intact:
            return f"library intact: {self.loaded} entries"
        bits = [f"{self.loaded} entries loaded"]
        if self.salvaged:
            bits.append("salvaged from unparseable JSON")
        if self.checksum_ok is False:
            bits.append("checksum mismatch")
        if self.dropped:
            bits.append(f"{len(self.dropped)} entries dropped")
        return "library damaged: " + ", ".join(bits)


class Library:
    """Queryable collection of operating points."""

    def __init__(self, entries: list | None = None, metadata: dict | None = None):
        self.entries: list[LibraryEntry] = list(entries or [])
        self.metadata: dict = dict(metadata or {})
        # Populated by from_json()/load(); None for in-memory libraries.
        self.load_report: LoadReport | None = None
        # Bumped on every mutation; consumers holding derived structures
        # (e.g. RuntimeManager's selection index) use it to detect
        # staleness cheaply.
        self._version = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, entry: LibraryEntry) -> None:
        self.entries.append(entry)
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def accelerators(self) -> list[AcceleratorId]:
        seen = []
        for e in self.entries:
            if e.accelerator not in seen:
                seen.append(e.accelerator)
        return seen

    def entries_for(self, accelerator: AcceleratorId) -> list[LibraryEntry]:
        return [e for e in self.entries if e.accelerator == accelerator]

    def best_accuracy(self) -> float:
        """Highest accuracy in the library (the reference point the user's
        accuracy threshold is measured from)."""
        if not self.entries:
            raise ValueError("library is empty")
        return max(e.accuracy for e in self.entries)

    def quarantine(self, predicate, reason: str = "quarantined") -> int:
        """Remove entries matching ``predicate``, recording the gaps.

        Mirrors the sweep supervisor's metadata format (one dict per
        removed design point under ``metadata["quarantined"]``) so a
        mid-campaign quarantine looks exactly like a generation-time one.
        Bumps ``_version`` when anything was removed, so derived
        structures (selection index, policy tables) rebuild. Returns the
        number of entries removed.
        """
        keep, gone = [], []
        for e in self.entries:
            (gone if predicate(e) else keep).append(e)
        if not gone:
            return 0
        self.entries = keep
        record = self.metadata.setdefault("quarantined", [])
        for e in gone:
            record.append({
                "variant": e.accelerator.variant,
                "rate": e.accelerator.pruning_rate,
                "kind": "runtime_quarantine",
                "message": reason,
            })
        self._version += 1
        return len(gone)

    def filtered(self, predicate) -> "Library":
        """New library view with only entries matching ``predicate``."""
        return Library([e for e in self.entries if predicate(e)],
                       dict(self.metadata))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @staticmethod
    def _content_checksum(metadata: dict, entry_dicts: list) -> str:
        """Checksum of the canonical content (key-sorted, no whitespace,
        so it is stable across save/load cycles and indentation)."""
        blob = json.dumps({"metadata": metadata, "entries": entry_dicts},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> str:
        entries = [e.to_dict() for e in self.entries]
        return json.dumps({
            "schema": SCHEMA_VERSION,
            "checksum": self._content_checksum(self.metadata, entries),
            "metadata": self.metadata,
            "entries": entries,
        }, indent=1)

    @classmethod
    def from_json(cls, text: str, strict: bool = True) -> "Library":
        """Parse a serialized library.

        ``strict=True`` (default) fails closed: any damage — unparseable
        JSON, unsupported schema, checksum mismatch, or an invalid entry
        — raises :class:`~repro.core.errors.IntegrityError`.
        ``strict=False`` salvages: every intact entry is loaded (whether
        the file is unparseable, mis-shaped at the root, or damaged per
        entry), with the damage itemized in the returned library's
        ``load_report``.
        """
        try:
            raw = json.loads(text)
        except ValueError as exc:
            if strict:
                raise IntegrityError(
                    "library JSON is unparseable (truncated or corrupt):"
                    f" {exc}") from exc
            return cls._salvage(text)
        try:
            return cls._from_raw(raw, strict)
        except IntegrityError:
            # Non-strict rejections can only be root-level damage (bad
            # shape, unsupported schema, mistyped metadata); the entry
            # scanner can still pull intact entries out of the text.
            if strict:
                raise
            return cls._salvage(text)

    @classmethod
    def _from_raw(cls, raw, strict: bool) -> "Library":
        if not isinstance(raw, dict) \
                or not isinstance(raw.get("entries"), list):
            raise IntegrityError(
                "library JSON must be an object with an 'entries' list")
        report = LoadReport()
        schema = raw.get("schema", 1)  # pre-envelope files are schema 1
        if not isinstance(schema, int) or isinstance(schema, bool) \
                or not 1 <= schema <= SCHEMA_VERSION:
            raise IntegrityError(
                f"unsupported library schema {schema!r} "
                f"(this build reads versions 1..{SCHEMA_VERSION})")
        report.schema = schema
        metadata = raw.get("metadata", {})
        if not isinstance(metadata, dict):
            raise IntegrityError("'metadata' must be an object")
        checksum = raw.get("checksum")
        if checksum is not None:
            report.checksum_ok = \
                checksum == cls._content_checksum(metadata, raw["entries"])
            if strict and not report.checksum_ok:
                raise IntegrityError(
                    "library checksum mismatch — the file was modified "
                    "or corrupted after it was written")
        entries = []
        for i, d in enumerate(raw["entries"]):
            try:
                entries.append(LibraryEntry.from_dict(d))
            except IntegrityError as exc:
                if strict:
                    raise IntegrityError(f"entry {i}: {exc}") from exc
                report.dropped.append((i, str(exc)))
        report.loaded = len(entries)
        library = cls(entries, metadata)
        library.load_report = report
        return library

    @classmethod
    def _salvage(cls, text: str) -> "Library":
        """Recover what survives from a file that cannot be read whole —
        JSON that no longer parses (e.g. truncated by a crash mid-write)
        or whose root shape is damaged: decode entry objects one by one
        until the broken region, dropping the rest."""
        report = LoadReport(salvaged=True)
        decoder = json.JSONDecoder()
        schema = re.search(r'"schema"\s*:\s*(\d+)', text)
        if schema:
            report.schema = int(schema.group(1))

        def skip_separators(pos: int) -> int:
            while pos < len(text) and text[pos] in " \t\r\n,":
                pos += 1
            return pos

        metadata = {}
        meta = re.search(r'"metadata"\s*:', text)
        if meta:
            try:
                obj, _ = decoder.raw_decode(text,
                                            skip_separators(meta.end()))
                if isinstance(obj, dict):
                    metadata = obj
            except ValueError:
                pass

        entries = []
        index = 0
        array = re.search(r'"entries"\s*:\s*\[', text)
        pos = array.end() if array else None
        while pos is not None:
            pos = skip_separators(pos)
            if pos >= len(text) or text[pos] == "]":
                break
            try:
                d, pos = decoder.raw_decode(text, pos)
            except ValueError:
                report.dropped.append(
                    (index, "truncated or malformed JSON"))
                break
            try:
                entries.append(LibraryEntry.from_dict(d))
            except IntegrityError as exc:
                report.dropped.append((index, str(exc)))
            index += 1
        report.loaded = len(entries)
        library = cls(entries, metadata)
        library.load_report = report
        return library

    def save(self, path) -> None:
        """Atomically persist (write temp + rename): a crash mid-save
        never leaves a half-written library behind."""
        path = str(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path, strict: bool = True) -> "Library":
        with open(path) as f:
            return cls.from_json(f.read(), strict=strict)
