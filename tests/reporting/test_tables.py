"""Edge cases for table cell rendering and layout validation."""

from __future__ import annotations

import pytest

from repro.reporting.tables import _render_cell, format_table


class TestRenderCellTiers:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (True, "yes"),
            (False, "no"),
            (float("nan"), "nan"),
            (float("inf"), "inf"),  # time-to-recovery of a trial that never did
            (float("-inf"), "-inf"),
            (3.0, "3"),  # integral float collapses to int text
            (-7.0, "-7"),
            (1e12, "1000000000000.0"),  # too big to trust int collapse
            (123.456, "123.5"),  # >= 100: one decimal
            (-250.04, "-250.0"),
            (2.345, "2.35"),  # >= 1: two decimals
            (0.98765, "0.9877"),  # < 1: four decimals
            (-0.5, "-0.5000"),
            (7, "7"),  # plain ints untouched
            ("label", "label"),
            (None, "None"),
        ],
    )
    def test_tier(self, value, expected):
        assert _render_cell(value) == expected


class TestFormatTableEdges:
    def test_narrow_column_padded_to_header(self):
        text = format_table(("a-very-wide-header",), ((1,),))
        data = [line for line in text.splitlines() if line.startswith("| ")][1]
        assert len(data) == len("| a-very-wide-header |")

    def test_wide_cell_stretches_header(self):
        text = format_table(("x",), (("stretchy-cell-value",),))
        header = [line for line in text.splitlines() if line.startswith("| ")][0]
        assert len(header) == len("| stretchy-cell-value |")

    def test_row_width_mismatch_names_the_row(self):
        with pytest.raises(ValueError, match=r"row width 3"):
            format_table(("a", "b"), ((1, 2), (1, 2, 3)))

    def test_zero_rows_with_title(self):
        text = format_table(("a", "b"), (), title="empty table")
        lines = text.splitlines()
        assert lines[0] == "empty table"
        # title + top rule + header + header rule + bottom rule.
        assert len(lines) == 5
        assert lines[-1] == lines[-2]

    def test_mixed_types_in_one_column(self):
        text = format_table(
            ("value",), ((True,), (float("nan"),), (0.25,), ("-",))
        )
        cells = [
            line.split("|")[1].strip()
            for line in text.splitlines()
            if line.startswith("| ")
        ][1:]
        assert cells == ["yes", "nan", "0.2500", "-"]
