"""Tabular analysis results with provenance metadata and CSV/JSON writers.

Every analysis in the package returns (or can be wrapped into) a
``MetricReport``: named columns, rows of plain values, and a metadata
mapping recording the configuration the numbers were produced under.
Output is deterministic: no timestamps, floats via ``repr`` so values
round-trip at full precision.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from pathlib import Path
from typing import Any, IO

from .slotted import Slotted


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


class MetricReport(Slotted):
    __slots__ = ("name", "columns", "rows", "metadata")

    def __init__(
        self,
        name: str,
        columns: tuple[str, ...],
        rows: list[tuple] | None = None,
        metadata: dict[str, Any] | None = None,
    ):
        self.name = name
        self.columns = columns
        self.rows: list[tuple] = [] if rows is None else rows
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
        out = io.StringIO()
        self._write_csv(out)
        return out.getvalue()

    def _write_csv(self, out: IO[str]) -> None:
        """Write ``to_csv_text`` to ``out`` a line at a time."""
        for key in sorted(self.metadata):
            value = self.metadata[key]
            text = f"{key}: {'' if value is None else value}"
            text = text.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
            out.write(f"# {text}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_cell(v) for v in row) + "\n")

    def to_json_text(self) -> str:
        out = io.StringIO()
        self._write_json(out)
        return out.getvalue()

    def _write_json(self, out: IO[str]) -> None:
        """Write ``to_json_text`` to ``out`` a piece at a time."""
        import json  # loaded here, so a CSV report never imports it

        payload = {
            "report": self.name,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")

    def write(self, target: str | Path | IO[str], fmt: str = "csv") -> None:
        """Write the report to a path or a text stream.

        CSV goes to the target a line at a time and JSON a piece at a time,
        so no copy of the whole text is held.
        """
        stream = hasattr(target, "write")
        with nullcontext(target) if stream else open(target, "w", encoding="utf-8") as out:
            if fmt == "csv":
                self._write_csv(out)
            else:
                self._write_json(out)

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
