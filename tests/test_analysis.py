"""Tests for the plain-text reporting helpers."""

import pytest

from repro.analysis.reporting import (
    ascii_table,
    comparison_line,
    format_value,
    series_block,
    sparkline,
)
from repro.core.errors import ConfigurationError


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(1.5) == "1.500"
        assert format_value(12345.6) == "1.235e+04"
        assert format_value("x") == "x"

    def test_ascii_table_alignment(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "bb", "value": 22.5}]
        table = ascii_table(rows, title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_ascii_table_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_table([])

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5])
        assert len(line) == 6
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_downsamples(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_series_block(self):
        block = series_block("rate", [0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
        assert "rate" in block
        assert "10.000" in block and "30.000" in block

    def test_series_block_mismatch(self):
        with pytest.raises(ConfigurationError):
            series_block("x", [0.0], [1.0, 2.0])

    def test_comparison_line(self):
        line = comparison_line("Fig2 crossing", "~172 s", 168.4)
        assert "paper=~172 s" in line
        assert "measured=168.400" in line
