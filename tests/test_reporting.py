"""Unit tests for repro.reporting."""

from repro.reporting import format_table


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"n": 10, "cost": 3.14159}, {"n": 1000, "cost": 2.0}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "cost" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
