"""Plain-text and CSV rendering of experiment results.

Benchmarks print the same rows/series the paper reports; these helpers
keep that formatting in one place.
"""

from __future__ import annotations

import csv

__all__ = ["format_table", "write_csv"]


def _fmt(value, precision: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(rows: list, columns: list | None = None,
                 precision: int = 3, title: str | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    header = [str(c) for c in columns]
    body = [[_fmt(row.get(c, ""), precision) for c in columns]
            for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def write_csv(rows: list, path, columns: list | None = None) -> None:
    """Write dict rows to a CSV file."""
    if not rows:
        raise ValueError("no rows to write")
    columns = columns or list(rows[0].keys())
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
