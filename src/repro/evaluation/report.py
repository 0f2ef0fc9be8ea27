"""Plain-text rendering helpers for tables and figure series.

The benchmark harnesses print the regenerated rows/series with these helpers
so their output can be compared side by side with the paper's tables and
figures.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns else list(rows[0].keys())
    formatted = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in formatted)) for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in formatted:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def render_series(series: Mapping[str, Sequence[float]], x_labels: Sequence[str],
                  title: str = "", unit: str = "") -> str:
    """Render named series over shared x labels (one row per series)."""
    rows = []
    for name, values in series.items():
        row: Dict[str, object] = {"series": name}
        for label, value in zip(x_labels, values):
            row[label] = value
        rows.append(row)
    suffix = f" [{unit}]" if unit else ""
    return render_table(rows, columns=["series", *x_labels], title=f"{title}{suffix}")
