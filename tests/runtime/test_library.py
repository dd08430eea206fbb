"""Library container tests."""

import json

import numpy as np
import pytest

from repro.core.errors import IntegrityError
from repro.runtime import (AcceleratorId, Library, LibraryEntry,
                           RuntimeManager, SCHEMA_VERSION,
                           SelectionPolicy)
from tests.conftest import make_entry


class TestAcceleratorId:
    def test_label(self):
        a = AcceleratorId(0.45, pruned_exits=True, variant="ee")
        assert a.label() == "ee-pr45-px"
        b = AcceleratorId(0.0, pruned_exits=False, variant="backbone")
        assert b.label() == "backbone-pr00-npx"

    def test_equality_drives_reconfig(self):
        a = AcceleratorId(0.4, True, "ee")
        b = AcceleratorId(0.4, True, "ee")
        c = AcceleratorId(0.45, True, "ee")
        assert a == b and a != c


class TestLibraryEntry:
    def test_power_interpolation(self):
        e = make_entry(rate=0.0, ct=0.5, acc=0.9, ips=500.0,
                       p_idle=0.8, p_busy=1.2)
        assert e.power_at(0.0) == pytest.approx(0.8)
        assert e.power_at(500.0) == pytest.approx(1.2)
        assert e.power_at(250.0) == pytest.approx(1.0)
        assert e.power_at(1e6) == pytest.approx(1.2)  # capped

    def test_service_latency_per_exit(self):
        e = make_entry(rate=0.0, ct=0.5, acc=0.9, ips=500.0,
                       exit_lats=(0.001, 0.002, 0.004))
        assert e.service_latency_s(0) == 0.001
        assert e.service_latency_s(2) == 0.004

    def test_service_latency_fallback(self):
        e = make_entry(rate=0.0, ct=0.5, acc=0.9, ips=500.0)
        e2 = LibraryEntry(**{**e.to_dict(),
                             "accelerator": e.accelerator,
                             "exit_rates": e.exit_rates,
                             "exit_latencies_s": ()})
        assert e2.service_latency_s(1) == e2.latency_s

    def test_dict_roundtrip(self):
        e = make_entry(rate=0.4, ct=0.3, acc=0.8, ips=700.0)
        restored = LibraryEntry.from_dict(e.to_dict())
        assert restored == e


class TestLibrary:
    def test_queries(self, toy_library):
        assert len(toy_library) == 12
        accs = toy_library.accelerators()
        assert len(accs) == 6  # 3 ee + 3 backbone
        ee0 = [a for a in accs if a.variant == "ee"
               and a.pruning_rate == 0.0][0]
        assert len(toy_library.entries_for(ee0)) == 3

    def test_best_accuracy(self, toy_library):
        assert toy_library.best_accuracy() == pytest.approx(0.90)

    def test_best_accuracy_empty(self):
        with pytest.raises(ValueError):
            Library().best_accuracy()

    def test_feasibility_through_the_indexed_path(self, toy_library):
        """Every pick meets both the accuracy floor and the workload
        when some entry can."""
        mgr = RuntimeManager(
            toy_library,
            SelectionPolicy(accuracy_loss_threshold=0.10))
        chosen = mgr.select(700.0)
        assert chosen.accuracy >= mgr.min_accuracy
        assert chosen.serving_ips >= 700.0

    def test_infeasible_workload_degrades_through_the_index(self,
                                                            toy_library):
        # No entry covers 1e5 IPS: the manager degrades to the fastest
        # accuracy-honouring entry instead of returning nothing.
        mgr = RuntimeManager(toy_library)
        chosen = mgr.select(1e5)
        assert chosen.serving_ips == max(
            e.serving_ips for e in toy_library
            if e.accuracy >= mgr.min_accuracy)

    def test_quarantine_removes_and_records(self, toy_library):
        n = len(toy_library)
        version = toy_library._version
        removed = toy_library.quarantine(
            lambda e: e.accelerator.variant == "backbone",
            reason="thermal recall")
        assert removed == 3
        assert len(toy_library) == n - 3
        assert all(e.accelerator.variant == "ee" for e in toy_library)
        assert toy_library._version > version
        gaps = toy_library.metadata["quarantined"]
        assert len(gaps) == 3
        assert all(g["kind"] == "runtime_quarantine"
                   and g["message"] == "thermal recall" for g in gaps)

    def test_quarantine_no_match_is_noop(self, toy_library):
        version = toy_library._version
        assert toy_library.quarantine(lambda e: False) == 0
        assert toy_library._version == version
        assert "quarantined" not in toy_library.metadata

    def test_filtered_view(self, toy_library):
        ee = toy_library.filtered(lambda e: e.accelerator.variant == "ee")
        assert len(ee) == 9
        assert len(toy_library) == 12  # original untouched

    def test_json_roundtrip(self, toy_library, tmp_path):
        path = tmp_path / "lib.json"
        toy_library.save(path)
        loaded = Library.load(path)
        assert len(loaded) == len(toy_library)
        assert loaded.metadata == toy_library.metadata
        for a, b in zip(loaded, toy_library):
            assert a == b


def legacy_payload(toy_library) -> dict:
    """Schema-1 (pre-envelope) dict form: no schema, no checksum."""
    return {"metadata": dict(toy_library.metadata),
            "entries": [e.to_dict() for e in toy_library]}


class TestSchemaAndChecksum:
    def test_saved_file_carries_envelope(self, toy_library, tmp_path):
        path = tmp_path / "lib.json"
        toy_library.save(path)
        raw = json.loads(path.read_text())
        assert raw["schema"] == SCHEMA_VERSION
        assert isinstance(raw["checksum"], str)
        loaded = Library.load(path)
        assert loaded.load_report.schema == SCHEMA_VERSION
        assert loaded.load_report.checksum_ok is True
        assert loaded.load_report.intact

    def test_legacy_schema1_still_loads(self, toy_library):
        text = json.dumps(legacy_payload(toy_library))
        loaded = Library.from_json(text)
        assert len(loaded) == len(toy_library)
        assert loaded.load_report.schema == 1
        assert loaded.load_report.checksum_ok is None  # nothing to check
        assert loaded.load_report.intact

    def test_unsupported_schema_rejected(self, toy_library):
        raw = json.loads(toy_library.to_json())
        raw["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(IntegrityError, match="unsupported"):
            Library.from_json(json.dumps(raw))

    def test_tampered_file_fails_checksum(self, toy_library):
        raw = json.loads(toy_library.to_json())
        raw["entries"][0]["accuracy"] = 0.999  # checksum not updated
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            Library.from_json(json.dumps(raw))

    def test_tampered_file_loads_leniently(self, toy_library):
        raw = json.loads(toy_library.to_json())
        raw["entries"][0]["accuracy"] = 0.999
        loaded = Library.from_json(json.dumps(raw), strict=False)
        assert len(loaded) == len(toy_library)
        assert loaded.load_report.checksum_ok is False
        assert not loaded.load_report.intact
        assert "checksum mismatch" in loaded.load_report.summary()


class TestEntryValidation:
    def test_missing_field_names_the_field(self, toy_library):
        payload = legacy_payload(toy_library)
        del payload["entries"][0]["accuracy"]
        with pytest.raises(IntegrityError) as err:
            Library.from_json(json.dumps(payload))
        assert "entry 0" in str(err.value)
        assert "'accuracy'" in str(err.value)

    def test_mistyped_field_names_type_and_value(self, toy_library):
        payload = legacy_payload(toy_library)
        payload["entries"][1]["serving_ips"] = "fast"
        with pytest.raises(IntegrityError) as err:
            Library.from_json(json.dumps(payload))
        assert "entry 1" in str(err.value)
        assert "must be a number" in str(err.value)

    def test_unknown_field_rejected(self, toy_library):
        payload = legacy_payload(toy_library)
        payload["entries"][0]["surprise"] = 1
        with pytest.raises(IntegrityError, match="unknown field"):
            Library.from_json(json.dumps(payload))

    def test_bad_accelerator_rejected(self, toy_library):
        payload = legacy_payload(toy_library)
        del payload["entries"][0]["accelerator"]["pruning_rate"]
        with pytest.raises(IntegrityError,
                           match="accelerator.*pruning_rate"):
            Library.from_json(json.dumps(payload))

    def test_from_dict_never_raises_bare_keyerror(self):
        with pytest.raises(IntegrityError):
            LibraryEntry.from_dict({})
        with pytest.raises(IntegrityError):
            LibraryEntry.from_dict("not a dict")
        # IntegrityError is a ValueError, so pre-existing callers that
        # caught ValueError keep working.
        assert issubclass(IntegrityError, ValueError)

    def test_lenient_load_drops_only_bad_entries(self, toy_library):
        payload = legacy_payload(toy_library)
        del payload["entries"][0]["accuracy"]
        payload["entries"][3]["latency_s"] = None
        loaded = Library.from_json(json.dumps(payload), strict=False)
        assert len(loaded) == len(toy_library) - 2
        assert [i for i, _ in loaded.load_report.dropped] == [0, 3]
        assert "2 entries dropped" in loaded.load_report.summary()


class TestTruncationAndSalvage:
    def test_truncated_file_fails_closed(self, toy_library):
        text = toy_library.to_json()[:len(toy_library.to_json()) // 2]
        with pytest.raises(IntegrityError, match="unparseable"):
            Library.from_json(text)

    def test_truncated_file_salvages_the_prefix(self, toy_library):
        text = toy_library.to_json()
        loaded = Library.from_json(text[:int(len(text) * 0.6)],
                                   strict=False)
        report = loaded.load_report
        assert report.salvaged
        assert 0 < len(loaded) < len(toy_library)
        assert report.dropped  # the broken tail is itemized
        assert "salvaged" in report.summary()
        # What survived is bona fide data from the original library.
        originals = [e.to_dict() for e in toy_library]
        for entry in loaded:
            assert entry.to_dict() in originals

    def test_salvage_recovers_metadata(self, toy_library):
        text = toy_library.to_json()
        cut = text.rfind("}", 0, int(len(text) * 0.9))
        loaded = Library.from_json(text[:cut], strict=False)
        assert loaded.metadata == toy_library.metadata

    def test_salvage_of_garbage_is_empty(self):
        loaded = Library.from_json("complete garbage", strict=False)
        assert len(loaded) == 0
        assert loaded.load_report.salvaged

    def test_root_shape_damage_salvages_entries(self, toy_library):
        # Parseable JSON whose root is damaged (metadata is a list) must
        # still surrender its intact entries in non-strict mode.
        raw = json.loads(toy_library.to_json())
        raw["metadata"] = ["not", "an", "object"]
        text = json.dumps(raw)
        with pytest.raises(IntegrityError, match="metadata"):
            Library.from_json(text)
        loaded = Library.from_json(text, strict=False)
        assert len(loaded) == len(toy_library)
        assert loaded.load_report.salvaged
        assert loaded.metadata == {}  # the damaged part is dropped

    def test_unsupported_schema_salvages_entries(self, toy_library):
        raw = json.loads(toy_library.to_json())
        raw["schema"] = SCHEMA_VERSION + 1
        loaded = Library.from_json(json.dumps(raw), strict=False)
        assert len(loaded) == len(toy_library)
        assert loaded.load_report.salvaged
        assert loaded.load_report.schema == SCHEMA_VERSION + 1

    def test_entries_not_a_list_salvages_to_empty(self, toy_library):
        raw = json.loads(toy_library.to_json())
        raw["entries"] = "gone"
        loaded = Library.from_json(json.dumps(raw), strict=False)
        assert len(loaded) == 0
        assert loaded.load_report.salvaged

    def test_atomic_save_leaves_no_temp_files(self, toy_library,
                                              tmp_path):
        path = tmp_path / "lib.json"
        toy_library.save(path)
        toy_library.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["lib.json"]


class TestPrecisionField:
    def test_default_base(self):
        aid = AcceleratorId(variant="ee", pruning_rate=0.4,
                            pruned_exits=True)
        assert aid.precision == "base"
        assert aid.label() == "ee-pr40-px"

    def test_label_carries_non_base_precision(self):
        aid = AcceleratorId(variant="ee", pruning_rate=0.4,
                            pruned_exits=True, precision="int8")
        assert aid.label() == "ee-pr40-px-int8"

    def test_base_serialization_byte_compatible(self):
        entry = make_entry(rate=0.4, ct=0.5, acc=0.8, ips=100.0)
        d = entry.to_dict()
        assert "precision" not in d["accelerator"]
        back = LibraryEntry.from_dict(d)
        assert back.accelerator.precision == "base"
        assert back.to_dict() == d

    def test_int8_round_trip(self):
        import dataclasses

        entry = dataclasses.replace(
            make_entry(rate=0.4, ct=0.5, acc=0.8, ips=100.0),
            accelerator=AcceleratorId(variant="ee", pruning_rate=0.4,
                                      pruned_exits=True,
                                      precision="int8"))
        d = entry.to_dict()
        assert d["accelerator"]["precision"] == "int8"
        back = LibraryEntry.from_dict(d)
        assert back.accelerator.precision == "int8"
        assert back.accelerator == entry.accelerator

    def test_precision_distinguishes_ids(self):
        a = AcceleratorId("ee", 0.4, True)
        b = AcceleratorId("ee", 0.4, True, precision="int8")
        assert a != b
