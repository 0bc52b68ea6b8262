"""Plain-text reporting: tables, series blocks, sparklines."""

from repro.analysis.reporting import (
    ascii_table,
    comparison_line,
    format_value,
    series_block,
    sparkline,
)

__all__ = [
    "ascii_table",
    "comparison_line",
    "format_value",
    "series_block",
    "sparkline",
]
