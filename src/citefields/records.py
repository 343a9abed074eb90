"""Immutable corpus model: paper records, time windows, the column table.

A ``Corpus`` is built once (by the parser or programmatically) and is then
read-only, so concurrent readers need no locking. Every analysis reads a
corpus's ``table``, a ``PaperTable`` of the columns the analyses need, by
row in ascending id order, built on first use; the CLI parses straight
into such a table and builds no ``Corpus``. A time window is an argument
of the analysis, not a corpus: the analysis selects the rows of the
window's papers with the table's ``papers_in`` and resolves their
references in the whole corpus (citations may cross window boundaries).
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import inf
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import AnalysisError
from .report import MetricReport, base_metadata
from .slotted import Slotted
from .taxonomy import FieldTaxonomy

YEAR_RANGE = (1900, 2100)  # inclusive; the parser skips a record dated outside it
T = TypeVar("T")


class TimeWindow(Slotted):
    """Inclusive [start, end] range of publication years.

    Immutable and hashable: assigning or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if start > end:
            raise ValueError(f"window start {start} > end {end}")
        super().__init__(start, end)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def contains(self, year: int) -> bool:
        return self.start <= year <= self.end

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """Parse the CLI form ``START:END``, each year ASCII digits only and
        in ``YEAR_RANGE``, outside which no parsed record is dated.

        ``int()`` alone would also take a sign, an underscore, surrounding
        whitespace or another script's digits, all of which the parser
        refuses in ``#t``.
        """
        start_s, sep, end_s = text.partition(":")
        if not (sep and start_s.isascii() and start_s.isdigit()
                and end_s.isascii() and end_s.isdigit()):
            raise ValueError(f"bad window {text!r}, expected START:END")
        window = cls(int(start_s), int(end_s))
        if not (YEAR_RANGE[0] <= window.start and window.end <= YEAR_RANGE[1]):
            raise ValueError(f"window {text} falls outside the years {YEAR_RANGE[0]}:{YEAR_RANGE[1]}")
        return window

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


def author_key(name: str) -> str:
    """Author identity for matching names: trimmed, case-insensitive."""
    return name.strip().casefold()


def _shared_tuples(tuples: list[tuple[str, ...]], vocabulary: dict) -> list[tuple[str, ...]]:
    """Each tuple of strings of ``tuples`` as the one equal tuple of
    ``vocabulary``, made of its strings; ``vocabulary`` gains what it lacks."""
    get, share = vocabulary.get, vocabulary.setdefault
    shared = []
    for values in tuples:
        held = get(values)
        if held is None:
            held = tuple(map(share, values, values))
            vocabulary[held] = held
        shared.append(held)
    return shared


class PaperRecord(NamedTuple):
    """One publication. Field membership is stored as taxonomy indices, and
    ``keywords`` holds the distinct normalized keywords in ascending order.
    A named tuple: one tuple allocation to build (0.6 µs against 2.5 µs for
    the frozen dataclass it replaced), immutable, compared and hashed as the
    tuple of its fields."""

    id: int
    title: str
    authors: tuple[str, ...]
    year: int
    venue: str | None
    fields: frozenset[int]
    keywords: tuple[str, ...]
    references: tuple[int, ...]
    abstract: str | None


class Corpus:
    """Id-indexed record collection and the ``PaperTable`` of its records.

    ``records`` iterates in ascending id order. Unless the parser built them,
    the records must re-parse to the same ids with equal records
    (``corpusio.check_round_trip``), and before that ids must sort and be
    distinct, authors and references be tuples, fields a frozenset of
    indices within the taxonomy, and every author and keyword a ``str``;
    otherwise ``ValueError`` is raised.
    """

    __slots__ = ("records", "taxonomy", "_table")

    def __init__(
        self,
        records: Iterable[PaperRecord],
        taxonomy: FieldTaxonomy,
        _validate: bool = True,
    ):
        ordered = list(records)
        try:
            ordered.sort(key=lambda r: r.id)
        except TypeError:  # ints always compare, so some id is not one
            bad = next(r.id for r in ordered if type(r.id) is not int)
            raise ValueError(f"paper id {bad!r} is not an int and does not sort") from None
        self.records: dict[int, PaperRecord] = {}
        self.taxonomy = taxonomy
        self._table: PaperTable | None = None
        n_fields = len(taxonomy)
        for rec in ordered:
            if _validate:
                if rec.id in self.records:
                    raise ValueError(f"duplicate paper id {rec.id}")
                if not (type(rec.authors) is type(rec.references) is tuple
                        and type(rec.fields) is frozenset):
                    raise ValueError(
                        f"paper {rec.id} authors and references must be tuples, fields a frozenset"
                    )
                for f in rec.fields:
                    if not isinstance(f, int):
                        raise ValueError(f"paper {rec.id} field {f!r} is not an int index")
                    if f < 0 or f >= n_fields:
                        raise ValueError(f"paper {rec.id} has field index outside taxonomy")
                try:
                    iter(rec.keywords)
                except TypeError:
                    raise ValueError(
                        f"paper {rec.id} keywords {rec.keywords!r} is not a tuple of str"
                    ) from None
                for name, texts in (("author", rec.authors), ("keyword", rec.keywords)):
                    for text in texts:
                        if not isinstance(text, str):
                            raise ValueError(f"paper {rec.id} {name} {text!r} is not a str")
            self.records[rec.id] = rec
        if _validate:
            from .corpusio import check_round_trip  # corpusio imports this module

            check_round_trip(self)

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, pid: int) -> bool:
        return pid in self.records

    def __getitem__(self, pid: int) -> PaperRecord:
        return self.records[pid]

    def __iter__(self) -> Iterator[int]:
        """Paper ids in ascending order."""
        return iter(self.records)

    def papers_in(self, field: int | None = None, window: TimeWindow | None = None) -> list[int]:
        """The ids of the table's ``papers_in``, a name ``perfbench/traced.py`` counts."""
        table = self.table
        return [table.ids[r] for r in table.papers_in(field, window)]

    @property
    def table(self) -> PaperTable:
        """The records' ``PaperTable`` with every column, read on first use."""
        if self._table is None:
            self._table = self._read(PaperTable.reader(*PaperTable.__slots__[6:]))
        return self._table

    def _read(self, into: Callable[[Iterable[tuple], FieldTaxonomy], T]) -> T:
        """``into`` of the records as a parse of them would call it, in
        batches of 1024 (authors and keywords as their tag's text)."""

        def batches() -> Iterator[tuple]:
            records = iter(self.records.values())
            while batch := list(islice(records, 1024)):
                columns = dict(zip(PaperRecord._fields, zip(*batch)))
                yield tuple([",".join(values) or None for values in columns[name]]
                            if name in ("authors", "keywords") else columns[name]
                            for name in into.columns)

        return into(batches(), self.taxonomy)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.taxonomy == other.taxonomy
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return f"Corpus({len(self.records)} records)"


class PaperTable(Slotted):
    """What the analyses read of a corpus, by row: ``ids`` ascend, a paper's
    row is its position there, ``row`` maps each id to it, and each column
    is a list by row.

    ``year`` and ``fields`` are always there. ``references`` (the cited
    rows, ascending), ``venue`` (trimmed, or None), ``first_author`` (the
    first author's ``author_key``, or None), ``authors`` (each author's key)
    and ``keywords`` (a tuple, read as a set) are None unless the table was
    built with them, as the CLI builds only what its analysis reads. A cited
    id that is no paper's is dropped and counted in ``unresolved``, a
    ``Counter`` by row. ``reader`` builds every table, from a parse or from a
    ``Corpus``'s records, sharing equal venues, author keys, author-key
    tuples and keywords through one vocabulary per build. Every kernel reads
    ``corpus.table``: a ``Corpus``'s, or a table, its own.
    """

    __slots__ = ("taxonomy", "ids", "row", "unresolved", "year", "fields", "references",
                 "venue", "first_author", "authors", "keywords")

    def __init__(self, taxonomy: FieldTaxonomy, ids: list[int], **columns: list):
        """The table of the distinct ``ids`` with ``columns``, lists in the
        order of ``ids`` that become its own: sorted in place if out of
        order, and each paper's ascending id tuple of ``references``
        replaced in place by its tuple of rows. A repeated id, or a column
        of another length than ``ids``, raises ``ValueError``."""
        for name, values in columns.items():
            if len(values) != len(ids):
                raise ValueError(f"column {name!r} holds {len(values)} values for {len(ids)} ids")
        if any(map(gt, ids, ids[1:])):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            for values in (ids, *columns.values()):
                values[:] = [values[i] for i in order]
        self.taxonomy, self.ids, self.row = taxonomy, ids, dict(zip(ids, range(len(ids))))
        if len(self.row) != len(ids):
            raise ValueError(f"paper id {next(a for a, b in zip(ids, ids[1:]) if a == b)} repeats")
        for name in self.__slots__[4:]:
            setattr(self, name, columns.get(name))
        self.unresolved = Counter()
        get = self.row.get
        for r, cited in enumerate(self.references or ()):
            rows = tuple(map(get, cited))
            if None in rows:
                rows = tuple([c for c in rows if c is not None])
                self.unresolved[r] = len(cited) - len(rows)
            self.references[r] = rows

    @classmethod
    def reader(cls, *extra: str) -> Callable[[Iterable[tuple], FieldTaxonomy], PaperTable]:
        """The ``into`` of ``corpusio.parse_corpus`` that builds the table of
        the accepted blocks, with the optional columns ``extra``, from the
        parser's columns: no record, title or abstract is made. References
        are sorted a batch at a time, and the values of each build are
        shared through one vocabulary, dropped when the build ends."""
        from .corpusio import _author_keys, _keyword_tuples, _stripped  # it imports this module

        def kept(values, _vocabulary):
            return values

        made = {  # each column: the parser column it is made of, and how
            "year": ("year", kept),
            "fields": ("fields", kept),
            "references": ("references", lambda refs, vocabulary: [
                tuple(sorted(map(vocabulary.setdefault, cited, cited))) for cited in refs]),
            "venue": ("venue", lambda texts, vocabulary: [
                venue and vocabulary.setdefault(venue, venue) for venue in _stripped(texts)]),
            "first_author": ("authors", lambda texts, vocabulary: [
                vocabulary.setdefault(keys[0], keys[0]) if keys else None
                for keys in _author_keys(texts)]),
            "authors": ("authors", lambda texts, vocabulary: _shared_tuples(
                _author_keys(texts), vocabulary)),
            "keywords": ("keywords", lambda texts, vocabulary: _keyword_tuples(
                texts, vocabulary.setdefault)),
        }
        names = tuple(dict.fromkeys(("year", "fields", *extra)))  # each once
        makers = [made[name][1] for name in names]

        def read(batches: Iterable[tuple], taxonomy: FieldTaxonomy) -> PaperTable:
            ids, *columns = [[] for _ in range(len(names) + 1)]
            vocabulary: dict = {}
            for pids, *values in batches:
                ids += map(vocabulary.setdefault, pids, pids)
                for column, make, batch in zip(columns, makers, values):
                    column += make(batch, vocabulary)
            return cls(taxonomy, ids, **dict(zip(names, columns)))

        read.columns = ("id", *(made[name][0] for name in names))
        return read

    @property
    def table(self) -> PaperTable:
        return self

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, pid: int) -> bool:
        return pid in self.row

    def papers_in(self, field: int | None = None, window: TimeWindow | None = None) -> list[int]:
        """Ascending rows, ``row``'s own ints, filtered by field and/or window."""
        rows = self.row.values() if field is None else [
            r for r, fields in zip(self.row.values(), self.fields) if field in fields]
        if window is None:
            return list(rows)
        start, end, year = window.start, window.end, self.year
        return [r for r in rows if start <= year[r] <= end]


def corpus_stats(corpus: Corpus) -> MetricReport:
    """Per-field paper counts plus corpus-wide totals.

    Raises on an empty corpus: there is nothing to report.
    """
    if not corpus.records:
        raise AnalysisError("corpus is empty, no stats to report")
    return corpus._read(_stats_fold)


def _stats_fold(batches: Iterable[tuple], taxonomy: FieldTaxonomy) -> MetricReport | None:
    """``corpus_stats`` of ``batches`` of the columns ``_stats_fold.columns``
    names, in one pass that keeps no paper; None when they hold none.

    Papers are tallied by their field set, which the parser shares between
    papers. Every total is an int, so each mean and share is the one a
    per-paper loop gives (exact below 2**53).
    """
    from .corpusio import _keyword_counts  # it imports this module

    n = n_refs = n_kw = 0
    year_min, year_max = inf, -inf
    tags: Counter = Counter()  # field set -> papers
    for years, fields, references, keywords in batches:
        n += len(years)
        tags.update(fields)
        n_refs += sum(map(len, references))
        n_kw += sum(_keyword_counts(keywords))
        year_min = min(year_min, min(years))
        year_max = max(year_max, max(years))
    if n == 0:
        return None
    multi = 0
    counts = [0] * len(taxonomy)
    for fields, papers in tags.items():
        if len(fields) > 1:
            multi += papers
        for f in fields:
            counts[f] += papers
    report = MetricReport(
        name="corpus-stats",
        columns=("field_abbr", "papers", "share"),
        metadata=base_metadata(
            "corpus-stats",
            records=n,
            multi_field_fraction=multi / n,
            year_min=year_min,
            year_max=year_max,
            mean_references=n_refs / n,
            mean_keywords=n_kw / n,
        ),
    )
    for f in taxonomy.indices:
        report.add_row(taxonomy.abbr(f), counts[f], counts[f] / n)
    return report


# The columns of a parse it reads (see corpusio.parse_corpus).
_stats_fold.columns = ("year", "fields", "references", "keywords")
