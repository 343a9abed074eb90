import csv
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from citefields import MetricReport
from citefields.cli import main
from citefields.report import WRITE_PIECES, RowView, format_cell


def _report():
    r = MetricReport("demo", ("name", "value"), metadata={"b": 2, "a": "x"})
    r.add_row("pi", 3.141592653589793)
    r.add_row("none", None)
    return r


def test_format_cell_rules():
    assert format_cell(None) == ""
    assert format_cell(1 / 3) == repr(1 / 3)
    assert format_cell(7) == "7"
    assert format_cell("abc") == "abc"


@pytest.mark.parametrize("value, cell", [
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ('"', '""""'),
    ("two\nlines", '"two\nlines"'),
    ("cr\r", '"cr\r"'),
    ("label 'Quantum Basketry' not in taxonomy, dropped",
     "\"label 'Quantum Basketry' not in taxonomy, dropped\""),
    ("# hash, comma", '"# hash, comma"'),
    ("plain 'quotes' and #", "plain 'quotes' and #"),
])
def test_format_cell_quotes_commas_quotes_and_line_breaks(value, cell):
    assert format_cell(value) == cell


def _table(text: str) -> list[list[str]]:
    """The rows after the leading ``#`` metadata lines, as ``csv.reader`` reads them."""
    lines = text.splitlines(keepends=True)
    while lines and lines[0].startswith("#"):
        lines.pop(0)
    return list(csv.reader(io.StringIO("".join(lines), newline="")))


@given(st.lists(st.tuples(st.text(max_size=8), st.one_of(st.none(), st.integers(), st.text())),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_csv_rows_read_back_at_the_header_width(rows):
    r = MetricReport("demo", ("name", "value"))
    for row in rows:
        r.add_row(*row)
    table = _table(r.to_csv_text())
    assert table[0] == ["name", "value"]
    assert table[1:] == [["" if v is None else str(v) for v in row] for row in rows]


def test_validate_csv_rows_keep_the_header_width(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("#*T\n#t2000\n#fAI,Quantum Basketry\n#index3\n\n"
                    '#*U\n#t2000\n#fAI\n#q say "#1", twice\n#index4\n', encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["validate", str(path), "-o", str(out)]) == 0
    table = _table(out.read_text(encoding="utf-8"))
    assert [len(row) for row in table] == [5, 5, 5]
    assert table[1][4] == "field label 'Quantum Basketry' not in taxonomy, dropped"
    assert table[2][4] == "unrecognized line ignored: '#q say \"#1\", twice'"


def test_metadata_line_breaks_are_escaped(tmp_path):
    """A file name holding LF, CR and a backslash stays inside its
    ``# config:`` line, and the line unescapes to its quoted echo."""
    path = tmp_path / "a\nb\\c\rd.txt"
    path.write_text("#*T\n#t2000\n#fAI\n#index3\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["stats", str(path), "-o", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    lines = text.split("\n")[:-1]
    table = list(csv.reader([line for line in lines if not line.startswith("#")]))
    assert len(table) > 1 and all(len(row) == len(table[0]) for row in table)
    [config] = [line for line in lines if line.startswith("# config: ")]
    echo = re.sub(r"\\(.)", lambda m: {"\\": "\\", "r": "\r", "n": "\n"}[m[1]], config)
    quoted = str(path).replace("\\", "\\\\").replace('"', '\\"')
    assert f' input="{quoted}"' in echo


def test_row_width_checked():
    r = MetricReport("demo", ("a", "b"))
    with pytest.raises(ValueError):
        r.add_row(1)


def test_csv_layout_metadata_sorted_header_mandatory():
    text = _report().to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "# a: x"
    assert lines[1] == "# b: 2"
    assert lines[2] == "name,value"
    assert lines[3] == "pi,3.141592653589793"
    assert lines[4] == "none,"


def test_json_layout():
    payload = json.loads(_report().to_json_text())
    assert payload["report"] == "demo"
    assert payload["rows"][1] == ["none", None]
    assert payload["metadata"] == {"a": "x", "b": 2}


def test_write_to_path_and_handle(tmp_path):
    import io

    r = _report()
    path = tmp_path / "r.csv"
    r.write(path)
    buf = io.StringIO()
    r.write(buf)
    assert path.read_text(encoding="utf-8") == buf.getvalue() == r.to_csv_text()


class _CountingStream(io.StringIO):
    """A text stream that keeps the length of each ``write`` call's text."""

    def __init__(self):
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_hands_the_stream_a_bounded_number_of_pieces(fmt):
    r = MetricReport("big", ("paper_id", "cp", "jif"), metadata={"b": "x", "a": 1})
    for i in range(10_000):
        r.add_row(i, i % 7, None if i % 3 else i / 7)
    out = _CountingStream()
    r.write(out, fmt)
    if fmt == "csv":
        lines = ["# a: 1\n", "# b: x\n", "paper_id,cp,jif\n"]
        lines += [",".join(format_cell(v) for v in row) + "\n" for row in r.rows]
        assert out.getvalue() == r.to_csv_text() == "".join(lines)
    else:
        payload = {"report": "big", "metadata": {"a": 1, "b": "x"},
                   "columns": ["paper_id", "cp", "jif"], "rows": [list(row) for row in r.rows]}
        assert out.getvalue() == r.to_json_text() == json.dumps(payload, indent=2) + "\n"
    # One call per WRITE_PIECES lines or json chunks, not one per line or chunk.
    pieces = list(r._pieces(fmt))
    assert len(pieces) > 10_000
    assert out.writes == [sum(map(len, pieces[at:at + WRITE_PIECES]))
                          for at in range(0, len(pieces), WRITE_PIECES)]


def test_column_accessor():
    assert _report().column("name") == ["pi", "none"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_row_view_writes_the_bytes_of_its_row_list(fmt):
    ids, cps = [3, 5, 8], [2, 0, 7]
    view = RowView(lambda pid, cp: (pid, cp, cp / 2 if cp else None), ids, cps)
    listed = [(3, 2, 1.0), (5, 0, None), (8, 7, 3.5)]
    assert len(view) == 3 and list(view) == list(view) == listed
    assert [view[i] for i in range(3)] == listed and view[-1] == listed[-1]
    meta = {"b": "x", "a": 1}
    columns = ("paper_id", "cp", "half")
    viewed = MetricReport("demo", columns, view, dict(meta))
    assert viewed.column("half") == [1.0, None, 3.5]
    out = io.StringIO()
    viewed.write(out, fmt)
    assert out.getvalue() == "".join(MetricReport("demo", columns, listed, dict(meta))._pieces(fmt))
