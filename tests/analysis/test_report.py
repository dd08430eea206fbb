"""Report formatting tests."""

import pytest

from repro.analysis import format_table, write_csv


ROWS = [
    {"policy": "AdaPEx", "loss": 0.0, "ok": True},
    {"policy": "FINN", "loss": 0.228, "ok": False},
]


class TestFormatTable:
    def test_contains_values(self):
        text = format_table(ROWS)
        assert "AdaPEx" in text
        assert "0.228" in text
        assert "yes" in text and "no" in text

    def test_column_subset(self):
        text = format_table(ROWS, columns=["policy"])
        assert "loss" not in text

    def test_title(self):
        assert format_table(ROWS, title="Table I").startswith("Table I")

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment(self):
        lines = format_table(ROWS).splitlines()
        assert len({len(l) for l in lines[:2]}) == 1  # header == separator


class TestCsv:
    def test_write(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(ROWS, path)
        content = path.read_text()
        assert content.startswith("policy,loss,ok")
        assert "FINN" in content

    def test_write_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")
