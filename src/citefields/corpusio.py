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

This module owns the format. ``serialize_corpus`` writes a corpus that
parses back to the same ids with equal records; ``Corpus(...)`` checks this
with ``check_round_trip`` for records built outside the parser, so the
parser alone says which values a record may hold.

The reader makes one streaming pass: it never holds more than one chunk of
text and one run of blocks. It hands the accepted blocks on in file order
as batches of columns, each batch the checked blocks of a run or the one
block ``finish()`` read, and each consumer names the columns it reads (the
``columns`` of ``parse_corpus``'s ``into``): ``validate`` none, ``stats``
the year, fields, references and keyword count, ``cotag`` the year and
fields, and a ``Corpus`` a record's nine. Only the ``Corpus`` consumer, or
an ``into`` that takes records, calls ``_records``, which builds them. A
block gets the same checks in the same order whatever the columns: its id
is marked seen and its references are converted, while its title,
authors, venue and abstract are left as read, since no diagnostic reads
them. So the report and any strict-mode ``ParseError`` are those of a
parse that builds every record.

The CLI's ``validate``, ``stats`` and ``cotag`` build no record, and their
memory is the accepted ids plus the diagnostics. An accepted id is a bit in
a ``bytearray`` when it is below ``SEEN_ID_BITS`` times the count of ids
accepted so far (the array grows by doubling), and an entry in a set
otherwise: dense ids cost about a bit each, and an id far beyond the
others costs no array.

For ``bytes``, binary streams and ``str`` sources only ``\n`` ends a line;
a text stream keeps its own newline handling. Binary input (what the CLI
passes) is decoded ``CHUNK_SIZE`` bytes at a time, cut after the chunk's
last ``\n``; a ``str`` is one chunk. A chunk that is not all UTF-8 is
decoded again line by line, so each line that is not UTF-8 becomes an
``encoding`` error diagnostic with its own line and byte offset instead of
aborting the whole parse; a ``%%`` comment line is skipped whatever bytes
it holds.

Blocks reach one reader, ``finish()``, which takes the lines of one block,
by two routes. Where a block starts after an empty line, a comment line or
nothing, in a decoded chunk, one compiled pattern tries to match it whole
in the order ``serialize_record`` and ``synth.generate`` write: ``#*``,
optional ``#@``, ``#t``, optional ``#c``, ``#f``, optional ``#k``,
``#index``, any number of ``#%`` lines of ASCII digits, optional ``#!``,
then an empty line. The pattern captures every value in C, and up to
``RUN_BLOCKS`` consecutive matched blocks form a run. A block cut by the
chunk's end is carried into the next chunk if it is no longer than
``CHUNK_SIZE``. Every other block is collected line by line up to the
blank or whitespace-only line that ends it, comment lines inside it
included: another tag order, a repeated or unknown tag, a ``%%`` line
inside it, a whitespace-only line inside, before or after it (a CRLF
file's blank lines hold ``\r``), a reference that is not ASCII digits, a
chunk that is not all UTF-8, a text stream or other iterable of lines, or
a block longer than a chunk.

A run is screened a column at a time, with ``map``, ``zip`` and
``accumulate`` over its match groups; this screen is the parser's only
fast path. A block passes when its year is one of ``YEAR_RANGE`` as ``#t``
writes it, its ``#f`` text is one whose fields ``finish()`` has memoized,
its id, read as ``finish()`` reads it, is above every id before it, and
its references hold neither its own id nor a repeat: nothing in it can
give a diagnostic. The blocks that pass are handed on a column at a time,
in the columns the consumer reads. Every other block of the run goes to
``finish()`` as its match's lines. ``finish()`` dispatches each line on
the tag's second character, numbers it by its place in the block and then
validates the block. So every diagnostic, ordinal and strict-mode
``ParseError`` comes from one reader, and ``_records`` strips, splits and
normalizes the values of every record, those ``finish()`` accepts
included.

A block's ``#k`` text is normalized as a whole and its keywords are kept as a
tuple of distinct values in ascending order (a tuple takes 40 + 8n bytes,
a frozenset of up to 4 items 216). ``_records`` joins a column's ``#@``
texts, and its ``#k`` texts, and checks each joined text once: when no
name needs trimming or is empty, and the joined ``#k`` text is printable
ASCII with no capital letter, no space run, no empty keyword and no space
at either end of a keyword, each text is only split. ``KEYWORD_COUNT``
counts each text's distinct keywords after the same check and builds no
tuple. An id, year or reference is ASCII digits only: ``int()`` alone
would also take a sign, an underscore or another script's digits. Field
label lookups, field-index sets and the fields of up to
``FIELD_TEXT_MEMO`` ``#f`` texts that resolve without a diagnostic are
memoized per parse. Author names, venues and keywords are not interned:
what that saves depends on how often the input repeats them, and on
mostly distinct values it costs memory. The cyclic
garbage collector is paused for the parse and its consumer, and its
previous state restored afterwards: each collection pass would rescan
every record built so far, while the parse leaves no cycle that must be
freed before it returns. The cost is O(input) time: a match that fails
backs off over each line of the block at most once.

``RUN_BLOCKS`` bounds the columns a run holds at once; without it a run
could hold a whole chunk of blocks (about 340 of the benchmark's). On a
2-vCPU Xeon VM, capping it at 128 cost about 2% of the seed-7
``session-10k`` parse (0.0523 against 0.0514 s, median of 6 fresh
processes) and cut the parse's added ``tracemalloc`` peak on the seed-7
``ingest-50k`` file from 1580 to 1402 KiB, building no record.

Diagnostics carry line numbers and the 1-based record ordinal. In strict
mode the first error-severity diagnostic aborts via ``ParseError``; in
lenient mode the offending record is skipped (or the offending label
dropped) and counted.
"""

from __future__ import annotations

import gc
import io
import re
from collections import deque
from itertools import accumulate, chain, compress, islice, repeat, starmap
from operator import gt, not_
from typing import IO, Callable, Iterator, NamedTuple, TypeVar

from .errors import ParseError
from .records import YEAR_RANGE, Corpus, PaperRecord
from .slotted import Slotted
from .taxonomy import FieldTaxonomy

T = TypeVar("T")

STRICT = "strict"
LENIENT = "lenient"

ERROR = "error"
WARNING = "warning"

COMMENT_PREFIX = "%%"

CHUNK_SIZE = 1 << 16  # bytes of binary input decoded at a time

# Matched blocks handed on as one run at most: a run holds each block's
# match and values until it is built.
RUN_BLOCKS = 128

# Bits of the accepted-id bitmap allowed per accepted id; a larger id is
# kept in a set.
SEEN_ID_BITS = 64

# #f texts whose fields a parse remembers; distinct spellings are few in
# practice, but nothing else bounds them.
FIELD_TEXT_MEMO = 4096


class Diagnostic(NamedTuple):
    line: int
    record: int
    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, record {self.record}: [{self.severity}] {self.code}: {self.message}"


class ParseReport(Slotted):
    __slots__ = ("blocks", "parsed", "skipped", "diagnostics")

    def __init__(
        self,
        blocks: int = 0,
        parsed: int = 0,
        skipped: int = 0,
        diagnostics: list[Diagnostic] | None = None,
    ):
        self.blocks = blocks
        self.parsed = parsed
        self.skipped = skipped
        self.diagnostics: list[Diagnostic] = [] if diagnostics is None else diagnostics

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]


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
# write them, ended by an empty line. Each group is the rest of its line
# (``.`` takes no "\n"), except that references are ASCII digits only and
# stand as one group of whole lines.
# Each year of YEAR_RANGE as ``#t`` writes it.
_YEARS = {str(year): year for year in range(YEAR_RANGE[0], YEAR_RANGE[1] + 1)}

_CANONICAL = re.compile(
    r"#\*(.*)\n"
    r"(?:#@(.*)\n)?"
    r"#t(.*)\n"
    r"(?:#c(.*)\n)?"
    r"#f(.*)\n"
    r"(?:#k(.*)\n)?"
    r"#index(.*)\n"
    r"((?:#%[0-9]+\n)*)"
    r"(?:#!(.*)\n)?"
    r"\n"
)


def _items(source: str | bytes | IO) -> Iterator[str | UnicodeDecodeError | list[re.Match]]:
    """The lines of ``source`` in order and then one blank line, except
    that a run of up to ``RUN_BLOCKS`` canonical blocks starting where no
    block is open is given whole, as the list of their ``_CANONICAL``
    matches.

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
                run = []
                while len(run) < RUN_BLOCKS and (match := _CANONICAL.match(piece, pos)):
                    run.append(match)
                    pos = match.end()
                if run:
                    yield run
                    if len(run) == RUN_BLOCKS or not piece.startswith("#*", pos):
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


def _keywords(text: str) -> tuple[str, ...]:
    """The distinct keywords of a #k line's value in ascending order,
    normalized: whitespace runs collapsed and the whole line case-folded at
    once. No whitespace run holds a comma, so each trimmed comma-separated
    piece equals that keyword normalized on its own. Empty pieces are
    dropped."""
    return tuple(sorted(set(map(str.strip, " ".join(text.split()).casefold().split(","))) - {""}))


def _split_only(texts) -> bool:
    """Whether each #k text of the column ``texts`` (a ``str`` or None) is
    already normalized, so that splitting it at "," gives its keywords.

    Found once for the whole column: joined with ",", its pieces are those
    of each text. Case folding leaves printable ASCII without capital
    letters as it is, and " " is its only whitespace: without a space run,
    a space at either end of a keyword or an empty keyword, each keyword is
    already normalized.
    """
    words = ",".join(filter(None, texts))
    return (words.isascii() and words.isprintable() and words == words.lower()
            and not ("  " in words or ", " in words or " ," in words or ",," in words
                     or words[:1] in (" ", ",") or words[-1:] in (" ", ",")))


def _keyword_counts(texts) -> list[int]:
    """The count of distinct keywords of each #k text of the column
    ``texts``: the length of the tuple ``_records`` would keep."""
    if _split_only(texts):
        return [len(set(text.split(","))) if text else 0 for text in texts]
    return [len(_keywords(text)) if text else 0 for text in texts]


def _records(ids, titles, authors, years, venues, fields, keywords,
             references, abstracts) -> list[PaperRecord]:
    """The records of checked blocks, built a column at a time.

    ``ids``, ``years``, ``fields`` and ``references`` hold the checked
    values. The other columns hold each text as it follows its tag:
    ``titles`` a ``str``, ``authors``, ``venues``, ``keywords`` and
    ``abstracts`` a ``str`` or None. Every value a record holds is
    stripped, split and normalized here.
    """
    # Names that need nothing but a split, found once for the whole column
    # as for keywords.
    names = ",".join(filter(None, authors))
    if names != ",".join(filter(None, map(str.strip, names.split(",")))):
        authors = [_names(text) if text else () for text in authors]
    else:
        authors = [tuple(text.split(",")) if text else () for text in authors]
    if _split_only(keywords):
        keywords = [tuple(dict.fromkeys(sorted(text.split(",")))) if text else ()
                    for text in keywords]
    else:
        keywords = [_keywords(text) if text else () for text in keywords]
    return list(map(
        PaperRecord, ids, map(str.strip, titles), authors, years,
        [text and text.strip() or None for text in venues], fields, keywords, references,
        [text and text.strip() or None for text in abstracts],
    ))


# The columns a parse can hand over: a record's nine, each as _records
# takes it, and each block's count of distinct keywords.
_RECORD_COLUMNS = PaperRecord._fields
KEYWORD_COUNT = "keyword_count"

# The text of each _CANONICAL group, named by the record column it gives.
_GROUPS = ("title", "authors", "year", "venue", "fields", "keywords", "id", "references",
           "abstract")
# The groups the run screen reads.
_SCREENED = ("year", "fields", "id", "references")


def _lines(match: re.Match) -> list[str]:
    """The lines of the canonical block of ``match``, without the empty
    line that ends it."""
    return match[0].split("\n")[:-2]


def discard_records(batches: Iterator[tuple], _taxonomy: FieldTaxonomy) -> None:
    """The ``into`` of ``parse_corpus`` that reads no column: the parse then
    builds no record, and only its report is left."""
    deque(batches, maxlen=0)


discard_records.columns = ()


def parse_corpus(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy | None = None,
    strictness: str = LENIENT,
    *,
    into: Callable[[Iterator, FieldTaxonomy], T] | None = None,
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

    An ``into`` with a ``columns`` attribute, a tuple of names from
    ``PaperRecord._fields`` and ``KEYWORD_COUNT``, is given batches in
    place of records and no record is built: each batch is a tuple of
    those columns of consecutive accepted blocks, one value a block, in
    file order. A record column holds its values as ``_records`` takes them
    (the checked id, year, fields and references, each text as it follows
    its tag), and ``KEYWORD_COUNT`` the length of each block's keyword
    tuple. Each block is checked as for a record, so the report and any
    ``ParseError`` are the same whatever the columns: no diagnostic reads a
    value that only a record holds.

    The cyclic garbage collector is paused while the parse and ``into``
    run; its previous state is restored however the parse ends.
    """
    if strictness not in (STRICT, LENIENT):
        raise ValueError(f"strictness must be {STRICT!r} or {LENIENT!r}")
    taxonomy = taxonomy or FieldTaxonomy.default()
    report = ParseReport()
    columns = getattr(into, "columns", None)
    if columns is None:
        read = _parse(source, taxonomy, strictness == STRICT, report)
    else:
        read = _batches(source, taxonomy, strictness == STRICT, report, columns)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if into is None:
            # Read to a list first, so that a span around the constructor
            # times the construction alone and the parse stays the parse's.
            result = Corpus(list(read), taxonomy, _validate=False)
        else:
            result = into(read, taxonomy)
    finally:
        if enabled:
            gc.enable()
    return result, report


def _parse(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy,
    strict: bool,
    report: ParseReport,
) -> Iterator[PaperRecord]:
    """The accepted records of ``source`` in file order; ``report`` is
    filled as they are read."""
    return chain.from_iterable(starmap(
        _records, _batches(source, taxonomy, strict, report, _RECORD_COLUMNS)))


def _batches(
    source: str | bytes | IO,
    taxonomy: FieldTaxonomy,
    strict: bool,
    report: ParseReport,
    columns: tuple[str, ...],
) -> Iterator[tuple]:
    """The ``columns`` of the accepted blocks of ``source`` in file order,
    as ``parse_corpus`` gives them to an ``into`` that names them, in
    batches of one run's checked blocks or of one block ``finish()`` read;
    ``report`` is filled as they are read."""
    # Accepted ids: bit pid of seen_bits, or an entry of seen_far when pid
    # was past the bitmap and past SEEN_ID_BITS per id accepted before it.
    # No accepted id is above top.
    seen_bits = bytearray()
    seen_far: set[int] = set()
    top = -1
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

    def mark(pid: int) -> None:
        """Mark ``pid`` accepted; ``report.parsed`` counts the ids before it."""
        nonlocal top
        byte = pid >> 3
        if byte < len(seen_bits):
            seen_bits[byte] |= 1 << (pid & 7)
        elif pid < SEEN_ID_BITS * (report.parsed + 1):
            seen_bits.extend(bytes(max(byte + 1, 2 * len(seen_bits)) - len(seen_bits)))
            seen_bits[byte] = 1 << (pid & 7)
        else:
            seen_far.add(pid)
        if pid > top:
            top = pid

    def finish(first_line: int, lines: list[str | UnicodeDecodeError]) -> tuple | None:
        """Read and validate the block of ``lines``, the first of them on
        line ``first_line``: the one-row batch of its ``columns``, or None
        when it is skipped.

        A line is a ``str``, which may keep its line break, or the
        ``UnicodeDecodeError`` of a line that is not UTF-8; ``%%`` lines
        are skipped. The tags are read in order, each diagnostic of a line
        given as it is read, and then the block is checked as a whole. No
        check reads a title, author, venue, keyword or abstract, and only
        ``_records`` prepares them.
        """
        nonlocal ordinal
        ordinal += 1
        report.blocks += 1
        title = authors = year_raw = venue = index_raw = abstract = field_lines = None
        year_line = index_line = 0
        keywords: list[str] = []
        ref_lines: list[tuple[int, str]] = []
        undecodable = False
        for lineno, line in enumerate(lines, first_line):
            if type(line) is UnicodeDecodeError:
                if not line.object.startswith(COMMENT_PREFIX.encode()):  # skipped whatever it holds
                    undecodable = True
                    emit(lineno, ERROR, "encoding",
                         f"line is not valid UTF-8 ({line.reason} at byte {line.start})")
                continue
            tag = line[1:2] if line[:1] == "#" else ""
            if tag == "%":
                ref_lines.append((lineno, line[2:].strip()))
            elif tag == "k":
                keywords.append(line[2:])
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
                    title = line[2:]
            elif tag == "@":
                if authors is not None:
                    emit(lineno, WARNING, "duplicate-tag", "extra #@ ignored")
                else:
                    authors = line[2:]
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
                    venue = line[2:]
            elif tag == "f":
                if field_lines is None:
                    field_lines = []
                field_lines.append((lineno, line[2:]))
            elif tag == "!":
                if abstract is not None:
                    emit(lineno, WARNING, "duplicate-tag", "extra #! ignored")
                else:
                    abstract = line[2:]
            elif not line.startswith(COMMENT_PREFIX):
                line = line.rstrip("\n").rstrip("\r")
                emit(lineno, WARNING, "unknown-line", f"unrecognized line ignored: {line[:40]!r}")
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
        byte = pid >> 3
        if (byte < len(seen_bits) and seen_bits[byte] & 1 << (pid & 7)) or pid in seen_far:
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

        kept: dict[int, None] = {}
        for lineno, raw in ref_lines:
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

        mark(pid)
        if not columns:  # validate: no row to build, about 1% of its parse
            return ()
        row = (pid, title or "", authors, year, venue, fields,
               ",".join(keywords) if keywords else None, tuple(kept), abstract)
        return tuple(_keyword_counts((row[at],)) if name == KEYWORD_COUNT else (row[at],)
                     for name, at in zip(columns, places))

    # Each column of columns as its place among a record's nine; the count
    # of keywords reads the keywords' place.
    places = [_RECORD_COLUMNS.index("keywords" if name == KEYWORD_COUNT else name)
              for name in columns]
    # A run's groups are read all at once, the faster call, when columns
    # reads a text; otherwise only those the screen reads.
    screened_only = set(columns) <= set(_SCREENED)
    lineno = 0
    block = None  # the lines of the open block, the first of them on line first_line
    for line in _items(source):
        lineno += 1
        if type(line) is list:
            # A run of canonical blocks. A block whose year is in _YEARS,
            # whose #f text is in fields_of_line, whose id is ASCII digits
            # above every id before it and whose references hold neither
            # itself nor a repeat can give no diagnostic: its columns are
            # handed over with the run's. finish() reads every other block.
            run = line
            piece = run[0].string
            at = run[0].start()  # the text before at starts on line lineno
            if screened_only:
                values = dict(zip(_SCREENED, zip(*map(
                    re.Match.group, run, repeat(3), repeat(5), repeat(7), repeat(8)))))
            else:
                values = dict(zip(_GROUPS, zip(*map(re.Match.groups, run))))
            year_raws, field_texts, index_raws, ref_texts = map(values.get, _SCREENED)
            years = list(map(_YEARS.get, year_raws))
            digits = "".join(index_raws)
            if "" not in index_raws and digits.isascii() and digits.isdigit():
                ids = list(map(int, index_raws))
            else:  # each id as finish() reads it, -1 where it is not an id
                ids = [int(raw) if raw.isascii() and raw.isdigit() else -1
                       for raw in map(str.strip, index_raws)]
            refs = [tuple(map(int, raw[2:-1].split("\n#%"))) if raw else () for raw in ref_texts]
            # Lazy: a #f text is looked up once finish() has read the blocks
            # before it, so only the first block with a new text misses.
            checked = map(all, zip(
                years, map(fields_of_line.get, field_texts),
                map(gt, ids, accumulate(ids, max, initial=top)),
                [pid not in r and len(set(r)) == len(r) for pid, r in zip(ids, refs)],
            ))
            values.update(id=ids, year=years, references=refs)
            n = len(run)
            done = 0  # blocks of the run handled so far
            for i in chain(compress(range(n), map(not_, checked)), (n,)):
                if done < i:  # the checked blocks done .. i - 1
                    ordinal += i - done
                    report.blocks += i - done
                    for pid in islice(ids, done, i):
                        mark(pid)
                        report.parsed += 1
                    yield tuple(
                        list(map(fields_of_line.get, field_texts[done:i])) if name == "fields"
                        else _keyword_counts(values["keywords"][done:i]) if name == KEYWORD_COUNT
                        else values[name][done:i]
                        for name in columns)
                if i < n:
                    lineno += piece.count("\n", at, run[i].start())
                    at = run[i].start()
                    batch = finish(lineno, _lines(run[i]))
                    if batch is None:
                        report.skipped += 1
                    else:
                        report.parsed += 1
                        yield batch
                done = i + 1
            lineno += piece.count("\n", at, run[-1].end()) - 1
        elif type(line) is str and not line.strip():
            # A blank or whitespace-only line ends the open block.
            if block is not None:
                batch = finish(first_line, block)
                block = None
                if batch is None:
                    report.skipped += 1
                else:
                    report.parsed += 1
                    yield batch
        elif block is not None:
            block.append(line)
        elif not (line.startswith(COMMENT_PREFIX) if type(line) is str
                  else line.object.startswith(COMMENT_PREFIX.encode())):
            # A comment line, whatever bytes it holds, starts no block.
            first_line = lineno
            block = [line]


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


def check_round_trip(corpus: Corpus) -> None:
    """Raise ``ValueError`` unless ``serialize_corpus(corpus)`` parses back
    to the same ids with equal records.

    The message names the first paper, in id order, whose record does not
    re-parse equal on its own: the first field whose value differs, or the
    diagnostic that would skip it. Each record is re-parsed alone, and only
    once the whole corpus has failed: a value that holds a blank line splits
    its record in two, which shifts the ordinal of every later record.
    """
    taxonomy = corpus.taxonomy
    read, _report = parse_corpus(serialize_corpus(corpus), taxonomy)
    if read.records == corpus.records:
        return
    for rec in corpus.records.values():
        report = ParseReport()
        read = list(_parse(serialize_record(rec, taxonomy), taxonomy, False, report))
        errors = report.errors()
        if errors and errors[0].record == 1:  # the first block is skipped
            raise ValueError(
                f"paper {rec.id} would be skipped on re-parse: {errors[0].code}: {errors[0].message}"
            )
        for name, given, got in zip(PaperRecord._fields, rec, read[0]):
            if given != got:
                raise ValueError(f"paper {rec.id} {name} {given!r} re-parses as {got!r}")
    raise ValueError(f"the corpus of {len(corpus)} records does not re-parse equal")
