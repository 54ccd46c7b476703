"""The study's one renderer: Markdown rows and the legend of a block
(`repro.bench.study`).  That ``--report`` writes exactly the printed
lines is checked in ``test_study_cli.py``."""

from repro.bench.study import (
    TABLE_HEADER,
    CellResult,
    TableRow,
    markdown_row,
    summary_line,
)
from repro.ec.results import Equivalence


def _row(name="ghz_3", timed_out=False, correct=True, failure=None):
    cells = {}
    for config in ("equivalent", "gate_missing", "flipped_cnot"):
        for method in ("dd", "zx"):
            cells[f"{config}/{method}"] = CellResult(
                0.42,
                Equivalence.TIMEOUT if timed_out else Equivalence.EQUIVALENT,
                timed_out,
                None if timed_out or failure else correct,
                failure=failure,
            )
    return TableRow(name, "compiled", 5, 10, 20, cells)


class TestMarkdownRendering:
    def test_table_structure(self):
        line = markdown_row(_row(), timeout=30)
        assert line == "| ghz_3 | 5 | 10 | 20 |" + " 0.42 |" * 6
        assert TABLE_HEADER[0].startswith("| Benchmark |")
        # Header, rule and row have the same number of columns; the
        # header's |G| columns escape their bars.
        columns = [text.replace("\\|", "").count("|") for text in TABLE_HEADER]
        assert columns == [line.count("|")] * 2

    def test_summary_counts(self):
        summary = summary_line([_row(), _row(name="qft", timed_out=True)])
        assert "12 checks total" in summary
        assert "timeout (6)" in summary

    def test_wrong_verdicts_counted(self):
        row = _row(correct=False)
        assert "wrong verdict (6)" in summary_line([row])
        assert "0.42!" in markdown_row(row, timeout=30)

    def test_degraded_cells_counted_apart_from_no_information(self):
        summary = summary_line([_row(failure="crashed")])
        assert "degraded (6)" in summary
        assert "no information (0)" in summary
        assert "| crash |" in markdown_row(_row(failure="crashed"), 30)
