"""Tabular analysis results with provenance metadata and CSV/JSON writers.

Every analysis in the package returns (or can be wrapped into) a
``MetricReport``: named columns, rows of plain values, and a metadata
mapping recording the configuration the numbers were produced under. The
rows are a list, or a ``RowView`` that makes each row from columns as it
is read, so a per-paper report holds no tuple per paper.
Output is deterministic: no timestamps, floats via ``repr`` so values
round-trip at full precision.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, IO, Iterator

from .slotted import Slotted

# CSV lines or ``json`` chunks handed to a stream per ``write`` call: few
# calls where it is unbuffered, and a batch of validate's CSV lines holds
# under 40 KiB.
WRITE_PIECES = 128


def format_cell(value: Any) -> str:
    """Render one cell for CSV output; None becomes an empty cell.

    A cell holding a comma, a double quote, CR or LF is quoted as RFC 4180
    has it: in double quotes, each inner double quote doubled.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class RowView:
    """Rows made from ``columns`` as they are read: row i is ``make`` of
    each column's value i. Sized, indexable and re-iterable; ``make``
    returns a tuple."""

    __slots__ = ("make", "columns")

    def __init__(self, make: Callable[..., tuple], *columns: list):
        self.make = make
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[tuple]:
        return map(self.make, *self.columns)

    def __getitem__(self, i: int) -> tuple:
        return self.make(*(column[i] for column in self.columns))


class MetricReport(Slotted):
    __slots__ = ("name", "columns", "rows", "metadata")

    def __init__(
        self,
        name: str,
        columns: tuple[str, ...],
        rows: list[tuple] | RowView | None = None,
        metadata: dict[str, Any] | None = None,
    ):
        self.name = name
        self.columns = columns
        self.rows = [] if rows is None else rows
        self.metadata: dict[str, Any] = {} if metadata is None else metadata

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def to_csv_text(self) -> str:
        """CSV with a mandatory header row; metadata as leading '#' comment lines.

        Comment lines are `# key: value`, sorted by key, so output is
        byte-stable for identical inputs. In a comment line ``\\`` is
        written ``\\\\``, CR ``\\r`` and LF ``\\n``, so each entry stays one line.
        """
        return "".join(self._pieces("csv"))

    def to_json_text(self) -> str:
        return "".join(self._pieces("json"))

    def _pieces(self, fmt: str) -> Iterator[str]:
        """The text of the report in ``fmt``: each CSV line, or each chunk
        ``json`` encodes, in order."""
        if fmt != "csv":
            import json  # loaded here, so a CSV report never imports it

            payload = {  # json writes a tuple as it writes a list, and no view
                "report": self.name,
                "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
                "columns": self.columns,
                "rows": list(self.rows),
            }
            return chain(json.JSONEncoder(indent=2).iterencode(payload), ("\n",))
        meta = []
        for key in sorted(self.metadata):
            value = self.metadata[key]
            text = f"{key}: {'' if value is None else value}"
            text = text.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
            meta.append(f"# {text}\n")
        return chain(meta, (",".join(self.columns) + "\n",),
                     (",".join(map(format_cell, row)) + "\n" for row in self.rows))

    def write(self, target: str | Path | IO[str], fmt: str = "csv") -> None:
        """Write the report to a path or a text stream, ``WRITE_PIECES`` CSV
        lines or ``json`` chunks per call: few calls where the stream is
        unbuffered (stdout under ``PYTHONUNBUFFERED``), and no copy of the
        whole text is held."""
        stream = hasattr(target, "write")
        with nullcontext(target) if stream else open(target, "w", encoding="utf-8") as out:
            pieces = self._pieces(fmt)
            while batch := list(islice(pieces, WRITE_PIECES)):
                out.write("".join(batch))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def base_metadata(report_name: str, **extra: Any) -> dict[str, Any]:
    """Common provenance keys every report carries."""
    from . import __version__

    meta: dict[str, Any] = {"tool": "citefields", "version": __version__, "report": report_name}
    meta.update(extra)
    return meta


def window_label(window) -> str:
    return str(window) if window is not None else "all"
