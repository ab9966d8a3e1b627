"""Plain-text report formatting for benchmark output.

Benchmarks print the same rows the paper's tables and figures report;
these helpers keep that output consistent and readable without requiring a
plotting stack.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.evaluation.metrics import MLUStatistics

__all__ = ["format_table", "format_mlu_comparison"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Format a list of rows as an aligned ASCII table.

    Raises:
        ValueError: If any row's cell count differs from ``len(headers)``,
            naming the offending row (a mismatched row used to surface as a
            bare ``IndexError`` from the column-width pass).
    """
    for index, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"table row {index} has {len(row)} cell(s) but there are "
                f"{len(headers)} header(s): {[str(cell) for cell in row]!r}"
            )
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_mlu_comparison(statistics: Mapping[str, MLUStatistics], title: str | None = None) -> str:
    """Format per-scheme normalised-MLU statistics (the Figure 5 summary)."""
    headers = ["scheme", "mean", "p50", "p75", "p90", "p99", "worst", "severe>2"]
    rows = []
    for name, stats in statistics.items():
        rows.append(
            [
                name,
                f"{stats.mean:.3f}",
                f"{stats.median:.3f}",
                f"{stats.p75:.3f}",
                f"{stats.p90:.3f}",
                f"{stats.p99:.3f}",
                f"{stats.worst:.3f}",
                f"{stats.severe_congestion_fraction * 100:.1f}%",
            ]
        )
    return format_table(headers, rows, title=title)

