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

The reader makes one streaming pass: it never holds more than one chunk of
text and one block, and it yields each accepted record as its block ends.
``parse_corpus`` collects them into a ``Corpus`` unless its ``into``
consumes them otherwise; the CLI's ``validate`` and ``stats`` keep no
record, and their memory is the accepted ids plus the diagnostics. An
accepted id is a bit in a ``bytearray`` when it is below ``SEEN_ID_BITS``
times the count of ids accepted so far (the array grows by doubling), and
an entry in a set otherwise: dense ids cost about a bit each, and an id
far beyond the others costs no array.

For ``bytes``, binary streams and ``str`` sources only ``\n`` ends a line;
a text stream keeps its own newline handling. Binary input (what the CLI
passes) is decoded ``CHUNK_SIZE`` bytes at a time, cut after the chunk's
last ``\n``; a ``str`` is one chunk. A chunk that is not all UTF-8 is
decoded again line by line, so each line that is not UTF-8 becomes an
``encoding`` error diagnostic with its own line and byte offset instead of
aborting the whole parse; a ``%%`` comment line is skipped whatever bytes
it holds.

Blocks are read two ways. Where a block starts after an empty line, a
comment line or nothing, in a decoded chunk, one compiled pattern tries to
match it whole in the order ``serialize_record`` and ``synth.generate``
write: ``#*``, optional ``#@``, ``#t``, optional ``#c``, ``#f``, optional
``#k``, ``#index``, any number of ``#%`` lines of ASCII digits, optional
``#!``, then an empty line. The pattern captures every value in C, and
the line numbers follow from the block's first line and the lines present.
A block cut by the chunk's end is carried into the next chunk if it is no
longer than ``CHUNK_SIZE``. Every other block goes through the line loop:
another tag order, a repeated or unknown tag, a ``%%`` line inside it, a
whitespace-only line inside, before or after it (a CRLF file's blank lines
hold ``\r``), a reference that is not ASCII digits, a chunk that is not
all UTF-8, a text stream or other iterable of lines, or a block longer
than a chunk. The line loop dispatches each line on the tag's second
character and keeps the block's tags in local variables until a blank or
whitespace-only line ends it. Both hand the block's values to one
``finish()``, so every diagnostic, ordinal and strict-mode ``ParseError``
comes from one validator.

A ``#k`` line is normalized as a whole and its keywords are kept as a
tuple of distinct values in ascending order (a tuple takes 40 + 8n bytes,
a frozenset of up to 4 items 216). A matched ``#k`` value in printable
ASCII with no capital letter, no space run and no space at either end of a
keyword is already normalized and is only split. An id, year or reference
is ASCII digits only: ``int()`` alone would also take a sign, an
underscore or another script's digits. The references of a block are
checked with one ASCII-digit test over their joined values and converted
in one ``map(int, ...)``; they are checked line by line only when that
fails or finds a self or repeated id. Field label lookups, field-index sets
and the fields of up to ``FIELD_TEXT_MEMO`` ``#f`` texts that resolve
without a diagnostic are memoized per parse. Author names, venues and
keywords are not interned: what that saves depends on how often the input
repeats them, and on mostly distinct values it costs memory. The cyclic
garbage collector is paused for the parse and its consumer, and its
previous state restored afterwards: each collection pass would rescan
every record built so far, while the parse leaves no cycle that must be
freed before it returns. The cost is O(input) time: a match that fails
backs off over each line of the block at most once.

On a 2-vCPU Xeon VM, in one process with the collector paused and 11
alternating runs against the line loop alone, the seed-5 ``ingest-50k``
benchmark file (50k records, 9.4 MB) parses in 0.76 s median against
0.95 s, and ``session-10k`` (10k records, 1.9 MB) in 0.137 s against
0.193 s. The pattern takes every block of ``session-10k`` and all but the
0.85% of ``ingest-50k`` blocks that hold an unknown line.

Diagnostics carry line numbers and the 1-based record ordinal. In strict
mode the first error-severity diagnostic aborts via ``ParseError``; in
lenient mode the offending record is skipped (or the offending label
dropped) and counted.
"""

from __future__ import annotations

import gc
import io
import logging
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Callable, Iterator, TypeVar

from .errors import ParseError
from .records import YEAR_RANGE, Corpus, PaperRecord
from .taxonomy import FieldTaxonomy

logger = logging.getLogger(__name__)

T = TypeVar("T")

STRICT = "strict"
LENIENT = "lenient"

ERROR = "error"
WARNING = "warning"

COMMENT_PREFIX = "%%"

CHUNK_SIZE = 1 << 16  # bytes of binary input decoded at a time

# Bits of the accepted-id bitmap allowed per accepted id; a larger id is
# kept in a set.
SEEN_ID_BITS = 64

# #f texts whose fields a parse remembers; distinct spellings are few in
# practice, but nothing else bounds them.
FIELD_TEXT_MEMO = 4096


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


def _text(data: bytes) -> str | list[str | UnicodeDecodeError]:
    """``data``, which ends with ``\n`` or holds none, decoded as a whole
    when it is all UTF-8, and otherwise as a list of its lines, each with
    its ``\n`` and decoded on its own, so an error names the same byte and
    reason as it would for the line read on its own."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return [_decoded(raw) for raw in io.BytesIO(data)]


def _pieces(source: str | bytes | IO) -> Iterator[str | list[str | UnicodeDecodeError]]:
    """The text of ``source`` in order, a piece at a time.

    A ``str`` piece holds whole lines, each ended by ``\n``; the last line
    of the input gets one if it has none, which leaves the lines as they
    are. A ``str`` source is one piece. Binary input is read ``CHUNK_SIZE``
    bytes at a time and cut after the last ``\n`` read; ``\n`` is never
    part of a multi-byte UTF-8 sequence, so a cut chunk decodes as a whole
    exactly when each of its lines does. A chunk that does not, and any
    other iterable of lines (a text stream keeps its own newline handling),
    is given as a list of its lines; a bytes line is decoded on its own,
    and a line that is not UTF-8 is given as its ``UnicodeDecodeError``.
    """
    if isinstance(source, str):
        if source:
            yield source if source.endswith("\n") else source + "\n"
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
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
        yield _text(b"".join(head))
        head = [block[cut + 1:]]
    tail = b"".join(head)  # the last line, if it has no "\n"
    if tail:
        text = _text(tail)
        yield text if type(text) is list else text + "\n"


# A block with its tags in the order serialize_record and synth.generate
# write them, ended by an empty line. Each group is the rest of its line,
# as the line loop reads it (``.`` takes no "\n"), except that references
# are ASCII digits only and stand as one group of whole lines, and that a
# #k value in printable ASCII without capital letters fills the first #k
# group.
_CANONICAL = re.compile(
    r"#\*(.*)\n"
    r"(?:#@(.*)\n)?"
    r"#t(.*)\n"
    r"(?:#c(.*)\n)?"
    r"#f(.*)\n"
    r"(?:#k(?:([ -@\[-~]*)\n|(.*)\n))?"
    r"#index(.*)\n"
    r"((?:#%[0-9]+\n)*)"
    r"(?:#!(.*)\n)?"
    r"\n"
)


def _items(source: str | bytes | IO) -> Iterator[str | UnicodeDecodeError | re.Match]:
    """The lines of ``source`` in order and then one blank line, except
    that a canonical block starting where no block is open is given whole,
    as its ``_CANONICAL`` match.

    The pattern is tried only after an empty or comment line, a matched
    block or nothing. A block that a ``str`` piece cuts short is carried
    into the next piece, if it is no longer than ``CHUNK_SIZE``.
    """
    between = True  # no block is open
    rest = ""  # the start of a block carried into the next piece
    for piece in chain(_pieces(source), ("\n",)):  # the blank line ends the last block
        if type(piece) is list:
            if rest:
                yield from rest.split("\n")[:-1]
                rest = ""
            yield from piece
            between = False
            continue
        if rest:
            piece = rest + piece
            rest = ""
        pos = 0
        end = len(piece)
        while pos < end:
            if between and piece.startswith("#*", pos):
                match = _CANONICAL.match(piece, pos)
                if match is not None:
                    yield match
                    pos = match.end()
                    continue
                if piece.find("\n\n", pos) < 0 and end - pos <= CHUNK_SIZE:
                    rest = piece[pos:]
                    break
            cut = piece.index("\n", pos)
            line = piece[pos:cut]
            pos = cut + 1
            yield line
            if not line:
                between = True
            elif not line.startswith(COMMENT_PREFIX):
                between = False


def _names(text: str) -> tuple[str, ...]:
    """The names of a #@ line's value, trimmed, without empty ones."""
    return tuple(filter(None, map(str.strip, text.split(","))))


def _keywords(text: str) -> Iterator[str]:
    """The keywords of a #k line's value, normalized: whitespace runs
    collapsed and the whole line case-folded at once. No whitespace run
    holds a comma, so each trimmed comma-separated piece equals that keyword
    normalized on its own. An empty piece gives ``""``."""
    return map(str.strip, " ".join(text.split()).casefold().split(","))


def parse_corpus(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy | None = None,
    strictness: str = LENIENT,
    *,
    into: Callable[[Iterator[PaperRecord], FieldTaxonomy], T] | None = None,
) -> tuple[Corpus | T, ParseReport]:
    """Parse the tagged record format into a validated Corpus.

    Returns ``(corpus, report)``. Error-severity problems (a line that is
    not UTF-8, missing or malformed #index, duplicate id, bad year, no usable
    field label) skip the record in lenient mode and raise ``ParseError`` in
    strict mode. Repairable problems (duplicate or self references, unknown
    lines, repeated single-value tags) are warnings in both modes.

    ``into(records, taxonomy)``, when given, consumes the accepted records
    in file order in place of the Corpus, and its result is returned in the
    corpus's place. It must exhaust ``records``: the report is complete only
    then, and a strict-mode ``ParseError`` is raised from inside it.

    The cyclic garbage collector is paused while the parse and ``into``
    run; its previous state is restored however the parse ends.
    """
    if strictness not in (STRICT, LENIENT):
        raise ValueError(f"strictness must be {STRICT!r} or {LENIENT!r}")
    taxonomy = taxonomy or FieldTaxonomy.default()
    report = ParseReport()
    records = _parse(source, taxonomy, strictness == STRICT, report)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if into is None:
            # Read to a list first, so that a span around the constructor
            # times the construction alone and the parse stays the parse's.
            result = Corpus(list(records), taxonomy, _validate=False)
        else:
            result = into(records, taxonomy)
    finally:
        if enabled:
            gc.enable()
    logger.debug("parse_corpus: %s", report.summary())
    return result, report


def _parse(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy,
    strict: bool,
    report: ParseReport,
) -> Iterator[PaperRecord]:
    """The accepted records of ``source`` in file order; ``report`` is
    filled as they are read."""
    # Accepted ids: bit pid of seen_bits, or an entry of seen_far when pid
    # was past the bitmap and past SEEN_ID_BITS per id accepted before it.
    seen_bits = bytearray()
    seen_far: set[int] = set()
    # Memos: label lookups, field-index sets and the fields of each #f text
    # that resolved without a diagnostic.
    field_of: dict[str, int | None] = {}  # field label -> taxonomy index, None if unknown
    fieldsets: dict[tuple[int, ...], frozenset[int]] = {}
    fields_of_line: dict[str, frozenset[int]] = {}
    year_min, year_max = YEAR_RANGE
    ordinal = 0

    def emit(lineno: int, severity: str, code: str, message: str) -> None:
        d = Diagnostic(lineno, ordinal, severity, code, message)
        report.diagnostics.append(d)
        if strict and severity == ERROR:
            raise ParseError(d)

    def finish(first_line, title, authors, year_raw, year_line, venue, field_lines,
               keywords, index_raw, index_line, ref_lines, ref_raws, abstract) -> PaperRecord | None:
        """Validate the block that just ended; None when it is skipped.

        Values are stripped, except each ``field_lines`` text that follows
        ``#f`` on its line; ``authors`` is a tuple without empty names and
        ``keywords`` a set of normalized keywords.
        """
        # Identity first: later diagnostics hang off the record's own lines.
        if index_raw is None:
            emit(first_line, ERROR, "missing-index", "record has no #index line")
            return None
        if not (index_raw.isascii() and index_raw.isdigit()):
            emit(index_line, ERROR, "malformed-index",
                 f"bad paper id {index_raw!r}")
            return None
        pid = int(index_raw)
        byte = pid >> 3
        bit = 1 << (pid & 7)
        if (byte < len(seen_bits) and seen_bits[byte] & bit) or pid in seen_far:
            emit(index_line, ERROR, "duplicate-id", f"paper id {pid} already seen")
            return None

        year = None
        if year_raw is not None and year_raw.isascii() and year_raw.isdigit():
            year = int(year_raw)
        if year is None or not (year_min <= year <= year_max):
            emit(year_line or first_line, ERROR, "malformed-year",
                 f"missing or out-of-range year {year_raw!r}")
            return None

        if field_lines is None:
            emit(first_line, ERROR, "missing-fields", "record has no #f line")
            return None
        fields = fields_of_line.get(field_lines[0][1]) if len(field_lines) == 1 else None
        if fields is None:
            field_indices: list[int] = []
            unknown = repeated = False
            for lineno, text in field_lines:
                for label in text.split(","):
                    label = label.strip()
                    if not label:
                        continue
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
                        repeated = True
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
            if (len(field_lines) == 1 and not (unknown or repeated)
                    and len(fields_of_line) < FIELD_TEXT_MEMO):
                fields_of_line[field_lines[0][1]] = fields

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

        if byte < len(seen_bits):
            seen_bits[byte] |= bit
        elif pid < SEEN_ID_BITS * (report.parsed + 1):
            seen_bits.extend(bytes(max(byte + 1, 2 * len(seen_bits)) - len(seen_bits)))
            seen_bits[byte] = bit
        else:
            seen_far.add(pid)
        keywords.discard("")
        return PaperRecord(
            pid, title or "", authors or (), year, venue or None, fields,
            tuple(sorted(keywords)), refs, abstract or None,
        )

    lineno = 0
    in_block = False
    for line in _items(source):
        lineno += 1
        if type(line) is re.Match:
            # A canonical block: the pattern found each line, so the line
            # numbers follow from the lines present.
            ordinal += 1
            report.blocks += 1
            (title, authors, year_raw, venue, field_text, plain_keywords, keyword_text,
             index_raw, refs, abstract) = line.groups()
            year_line = lineno + 1 + (authors is not None)
            field_line = year_line + 1 + (venue is not None)
            if plain_keywords is not None:
                keyword_text = plain_keywords
                # Case folding leaves this text as it is and " " is its only
                # whitespace: without a space run or a space at either end
                # of a keyword, each keyword is already normalized.
                if not ("  " in keyword_text or ", " in keyword_text or " ," in keyword_text
                        or keyword_text[:1] == " " or keyword_text[-1:] == " "):
                    keywords = set(keyword_text.split(","))
                else:
                    keywords = set(_keywords(keyword_text))
            else:
                keywords = set() if keyword_text is None else set(_keywords(keyword_text))
            index_line = field_line + 1 + (keyword_text is not None)
            ref_raws = refs[2:-1].split("\n#%") if refs else []
            if authors is not None:
                authors = _names(authors)
            record = finish(
                lineno, title.strip(), authors, year_raw.strip(), year_line,
                venue and venue.strip(), [(field_line, field_text)], keywords,
                index_raw.strip(), index_line,
                range(index_line + 1, index_line + 1 + len(ref_raws)), ref_raws,
                abstract and abstract.strip(),
            )
            lineno = index_line + len(ref_raws) + (abstract is not None) + 1
            if record is None:
                report.skipped += 1
            else:
                report.parsed += 1
                yield record
            continue

        # The line loop. A line may keep its line break: every value is stripped.
        if type(line) is UnicodeDecodeError:  # the line is not UTF-8
            if line.object.startswith(COMMENT_PREFIX.encode()):  # skipped whatever it holds
                continue
            tag, decode_error = None, line
        elif line[:1] == "#":
            tag = line[1:2]
        elif not line.strip():  # a blank or whitespace-only line ends the block
            if in_block:
                in_block = False
                record = None if undecodable else finish(
                    first_line, title, authors, year_raw, year_line, venue, field_lines,
                    keywords, index_raw, index_line, ref_lines, ref_raws, abstract,
                )
                if record is None:
                    report.skipped += 1
                else:
                    report.parsed += 1
                    yield record
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
            title = authors = year_raw = venue = index_raw = abstract = field_lines = None
            year_line = index_line = 0
            keywords: set[str] = set()
            ref_lines: list[int] = []
            ref_raws: list[str] = []
            undecodable = False

        if tag == "%":
            ref_lines.append(lineno)
            ref_raws.append(line[2:].strip())
        elif tag == "k":
            keywords.update(_keywords(line[2:]))
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
                authors = _names(line[2:])
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
            if field_lines is None:
                field_lines = []
            field_lines.append((lineno, line[2:]))
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
