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

The reader makes one streaming pass, holding one chunk of text and one run
of blocks at most. It hands the accepted blocks on in file order as
batches of the record columns its consumer names (the ``columns`` of
``parse_corpus``'s ``into``; ``cli._ANALYSES`` names each subcommand's).
No CLI subcommand builds a record, a title or an abstract: only a
parse into a ``Corpus`` calls ``_records``. Every block gets the same
checks whatever the columns, so the report and any strict-mode
``ParseError`` are those of a parse that builds every record. An accepted
id is a bit in a ``bytearray`` while ids stay below ``SEEN_ID_BITS`` per
id accepted, and an entry in a set otherwise.

For ``bytes``, binary streams and ``str`` sources only ``\n`` ends a line,
and ``\r\n`` reads as ``\n``. Each line that is not UTF-8 becomes an
``encoding`` diagnostic with its own line and byte offset; a ``%%``
comment line is skipped whatever it holds.

Blocks reach one reader, ``finish()``, by two routes. A block that starts
where no block is open, in a decoded chunk, is tried whole against one
pattern of the tag order ``serialize_record`` and ``synth.generate`` write,
and up to ``RUN_BLOCKS`` consecutive matches form a run. The run is
screened a column at a time: a block whose year is in ``YEAR_RANGE``,
whose ``#f`` text ``finish()`` has memoized, whose id is above every id
before it and whose references hold neither its id nor a repeat can give
no diagnostic, and goes on with the run's columns. ``finish()`` reads every
other block from its lines: the refused blocks of a run, and blocks of any
other shape (another tag order, a repeated or unknown tag, a
whitespace-only line, a chunk that is not all UTF-8, a text stream, a
block longer than a chunk), collected line by line. So every
diagnostic and ordinal comes from one reader, in O(input) time.

An id, year or reference is ASCII digits only: ``int()`` alone would also
take a sign, an underscore or another script's digits. Label lookups,
field-index sets and the fields of up to ``FIELD_TEXT_MEMO`` ``#f`` texts
are memoized per parse. The parser itself shares no name, venue, keyword or
id: a record holds its own, and so does every text it hands on.
``PaperTable.reader`` shares them in the table it builds, through one
vocabulary per parse, so that equal venues, author keys, author-key tuples,
keywords and ids are one object: a reference to a paper is that paper's
own id. The cyclic garbage collector is paused for the parse and its
consumer, which leave no cycle. Diagnostics carry line numbers and the
1-based record ordinal. In strict mode the first error-severity diagnostic
raises ``ParseError``; in lenient mode the record is skipped (or the label
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
# match and values until it is built. Capped at 128, the parse's tracemalloc
# peak on the seed-7 ingest-50k file fell from 1580 to 1402 KiB, for about
# 2% of its time.
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
    """The record ``blocks`` a parse read, ``parsed`` or ``skipped``, and its
    ``diagnostics`` in input order; each starts at 0 or empty."""

    __slots__ = ("blocks", "parsed", "skipped", "diagnostics")
    _defaults = {"blocks": int, "parsed": int, "skipped": int, "diagnostics": list}

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
    """The text of ``source`` in order, a piece at a time: a ``str`` of
    whole lines, each ended by ``\n`` (the last line gets one if it has
    none), or a list of lines. A ``str`` source is one piece; binary input
    is read ``CHUNK_SIZE`` bytes at a time, cut after the last ``\n``,
    which is never part of a multi-byte UTF-8 sequence; in both, a ``\r\n``
    becomes ``\n`` where a ``\r`` is found. A chunk that is not all UTF-8,
    and any other iterable of lines, is given as a list of its lines, a
    line that is not UTF-8 as its ``UnicodeDecodeError``.
    """
    if isinstance(source, str):
        if "\r" in source:
            source = source.replace("\r\n", "\n")
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
        text = b"".join(head)
        yield _text(text.replace(b"\r\n", b"\n") if b"\r" in text else text)
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
    that a run of up to ``RUN_BLOCKS`` canonical blocks starting after an
    empty or comment line, a matched block or nothing is given whole, as
    the list of their ``_CANONICAL`` matches. A block that a ``str`` piece
    cuts short is carried into the next, if no longer than ``CHUNK_SIZE``.
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


def _keyword_set(text: str) -> set[str]:
    """The distinct keywords of a #k line's value, normalized: whitespace
    runs collapsed and the whole line case-folded at once. No whitespace run
    holds a comma, so each trimmed comma-separated piece equals that keyword
    normalized on its own. Empty pieces are dropped."""
    return set(map(str.strip, " ".join(text.split()).casefold().split(","))) - {""}


def _split_only(texts) -> bool:
    """Whether each #k text of the column ``texts`` (a ``str`` or None) is
    already normalized, so that splitting it at "," gives its keywords:
    found once for the whole column, joined. Case folding leaves printable
    ASCII without capitals as it is, and " " is its only whitespace, so the
    joined text needs no space run, no empty keyword and no space at either
    end of one."""
    words = ",".join(filter(None, texts))
    return (words.isascii() and words.isprintable() and words == words.lower()
            and not ("  " in words or ", " in words or " ," in words or ",," in words
                     or words[:1] in (" ", ",") or words[-1:] in (" ", ",")))


def _keyword_tuples(texts, share: Callable[[str, str], str]) -> list[tuple[str, ...]]:
    """The keywords of each #k text of the column ``texts``, for readers
    that take them as a set: a repeat is kept, and each keyword is the one
    ``share(keyword, keyword)`` gives, such as a vocabulary's
    ``setdefault``. A tuple of n keywords takes 40 + 8n bytes, a frozenset
    of five to 19 of them 728."""
    if _split_only(texts):
        words = [text.split(",") if text else () for text in texts]
    else:
        words = [_keyword_set(text) if text else () for text in texts]
    return [tuple(map(share, each, each)) for each in words]


def _keyword_counts(texts) -> list[int]:
    """The count of distinct keywords of each #k text of the column
    ``texts``: the length of the tuple ``_records`` would keep."""
    if _split_only(texts):
        return [len(set(text.split(","))) if text else 0 for text in texts]
    return [len(_keyword_set(text)) if text else 0 for text in texts]


def _author_names(texts) -> list[tuple[str, ...]]:
    """The names of each #@ text of the column ``texts``. Where no name
    needs trimming or is empty, found once for the whole column as for
    keywords, each text is only split."""
    names = ",".join(filter(None, texts))
    if names != ",".join(filter(None, map(str.strip, names.split(",")))):
        return [_names(text) if text else () for text in texts]
    return [tuple(text.split(",")) if text else () for text in texts]


def _author_keys(texts) -> list[tuple[str, ...]]:
    """The ``author_key`` of each name of each #@ text of the column
    ``texts``: the names of the text's case fold, since case folding maps
    whitespace to itself and no other character to a comma, to whitespace
    or to nothing."""
    return _author_names([text and text.casefold() for text in texts])


def _stripped(texts) -> list[str | None]:
    """Each text of the column ``texts`` trimmed, None for none or a blank one."""
    return [text and text.strip() or None for text in texts]


def _records(ids, titles, authors, years, venues, fields, keywords,
             references, abstracts) -> list[PaperRecord]:
    """The records of checked blocks, built a column at a time from the
    checked ids, years, fields and references and each other column's text
    as it follows its tag (a ``str``, or None where the tag is optional),
    which is stripped, split and normalized here.
    """
    if _split_only(keywords):
        keywords = [tuple(dict.fromkeys(sorted(text.split(",")))) if text else ()
                    for text in keywords]
    else:
        keywords = [tuple(sorted(_keyword_set(text))) if text else () for text in keywords]
    return list(map(
        PaperRecord, ids, map(str.strip, titles), _author_names(authors), years,
        _stripped(venues), fields, keywords, references, _stripped(abstracts),
    ))


# The columns a parse can hand over: a record's nine, each as _records takes it.
_RECORD_COLUMNS = PaperRecord._fields

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

    ``into(batches, taxonomy)``, when given, must consume the accepted
    blocks in file order, and its result is returned in the corpus's place;
    a strict-mode ``ParseError`` is raised from inside it. No record is
    built: each batch holds the columns ``into.columns`` names, from
    ``PaperRecord._fields``, of consecutive accepted blocks, the checked
    id, year, fields and references and each other value as its tag's
    text. ``cli._ANALYSES`` names the CLI's; ``Corpus._read`` feeds any of
    them a corpus's records. The garbage collector is paused while they run.
    """
    if strictness not in (STRICT, LENIENT):
        raise ValueError(f"strictness must be {STRICT!r} or {LENIENT!r}")
    taxonomy = taxonomy or FieldTaxonomy.default()
    report = ParseReport()
    if into is None:
        read = _parse(source, taxonomy, strictness == STRICT, report)
    else:
        read = _batches(source, taxonomy, strictness == STRICT, report, into.columns)
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
        """Read and validate the block of ``lines`` (each a ``str``, or the
        ``UnicodeDecodeError`` of a line that is not UTF-8), the first on
        line ``first_line``: the one-row batch of its ``columns``, or None
        when it is skipped. Each line's diagnostics come as it is read, then
        the block's; none reads a title, author, venue, keyword or abstract.
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
        row = dict(zip(_RECORD_COLUMNS, (
            pid, title or "", authors, year, venue, fields,
            ",".join(keywords) if keywords else None, tuple(kept), abstract)))
        return tuple((row[name],) for name in columns)

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
    to the same ids with equal records, naming the first paper whose record
    does not re-parse equal on its own and the first field that differs or
    the diagnostic that would skip it. Records are re-parsed alone only once
    the whole corpus has failed: a value holding a blank line splits its
    record, which shifts the ordinal of every later one.
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
