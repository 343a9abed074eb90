"""Immutable corpus model: paper records, time windows, field/year partitions.

A ``Corpus`` is built once (by the parser or programmatically) and is then
read-only; every analysis in the package treats it as shared immutable state,
so concurrent readers need no locking. Its field and year partitions are
tuples of paper ids in ascending order, so analyses iterate them without
sorting. A time window is an argument of the analysis, not a corpus: the
analysis selects the window's papers with ``papers_in`` and resolves their
references in the whole corpus (citations may legitimately cross window
boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator, NamedTuple

from .errors import AnalysisError
from .report import MetricReport, base_metadata
from .taxonomy import FieldTaxonomy

YEAR_RANGE = (1900, 2100)  # inclusive; the parser skips a record dated outside it


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Inclusive [start, end] range of publication years."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"window start {self.start} > end {self.end}")

    def contains(self, year: int) -> bool:
        return self.start <= year <= self.end

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """Parse the CLI form ``START:END``, each year ASCII digits only.

        ``int()`` alone would also take a sign, an underscore, surrounding
        whitespace or another script's digits, all of which the parser
        refuses in ``#t``.
        """
        start_s, sep, end_s = text.partition(":")
        if not (sep and start_s.isascii() and start_s.isdigit()
                and end_s.isascii() and end_s.isdigit()):
            raise ValueError(f"bad window {text!r}, expected START:END")
        return cls(int(start_s), int(end_s))

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


def _one_trimmed_line(text: str) -> bool:
    """True when ``text`` holds no line break and has no edge whitespace,
    which the parser would strip."""
    return "\n" not in text and text.strip() == text


def author_key(name: str) -> str:
    """Author identity for matching names: trimmed, case-insensitive."""
    return name.strip().casefold()


class PaperRecord(NamedTuple):
    """One publication. Field membership is stored as taxonomy indices, and
    ``keywords`` holds the distinct normalized keywords in ascending order.

    A named tuple, so building one is a single tuple allocation: about
    0.6 µs against 2.5 µs for the frozen dataclass it replaced, which set
    each field through ``object.__setattr__`` (``timeit``, 2-vCPU Xeon VM).
    Fields cannot be assigned, and a record compares and hashes as the
    tuple of its fields.
    """

    id: int
    title: str
    authors: tuple[str, ...]
    year: int
    venue: str | None
    fields: frozenset[int]
    keywords: tuple[str, ...]
    references: tuple[int, ...]
    abstract: str | None

    def first_author_key(self) -> str | None:
        """``author_key`` of the first author; None without authors."""
        return author_key(self.authors[0]) if self.authors else None


class Corpus:
    """Id-indexed record collection with per-field and per-year partitions.

    ``records`` iterates in ascending id order, and ``by_field[f]`` and
    ``by_year[y]`` are ascending id tuples, all filled in one pass over the
    records sorted by id. Unless the parser built them, the records are
    validated, so that ``serialize_corpus`` writes every accepted corpus in a
    form that re-parses equal. Each value must be as the parser stores it:

    * authors and references tuples, and fields a frozenset;
    * the year within ``YEAR_RANGE`` and every reference id non-negative;
    * each keyword non-empty, trimmed, single-spaced, case-folded and
      without a comma;
    * each author name non-empty, trimmed and without a comma or line break;
    * the title trimmed and without a line break;
    * the venue and the abstract None, or non-empty, trimmed and without a
      line break.
    """

    __slots__ = ("records", "taxonomy", "by_field", "by_year")

    def __init__(
        self,
        records: Iterable[PaperRecord],
        taxonomy: FieldTaxonomy,
        _validate: bool = True,
    ):
        ordered = sorted(records, key=lambda r: r.id)
        self.records: dict[int, PaperRecord] = {}
        self.taxonomy = taxonomy
        n_fields = len(taxonomy)
        by_field: dict[int, list[int]] = {}
        by_year: dict[int, list[int]] = {}
        for rec in ordered:
            if _validate:
                if rec.id < 0:
                    raise ValueError(f"paper id {rec.id} is negative")
                if rec.id in self.records:
                    raise ValueError(f"duplicate paper id {rec.id}")
                if not (type(rec.authors) is type(rec.references) is tuple
                        and type(rec.fields) is frozenset):
                    raise ValueError(
                        f"paper {rec.id} authors and references must be tuples, fields a frozenset"
                    )
                if not rec.fields:
                    raise ValueError(f"paper {rec.id} has no fields")
                if any(f < 0 or f >= n_fields for f in rec.fields):
                    raise ValueError(f"paper {rec.id} has field index outside taxonomy")
                if not YEAR_RANGE[0] <= rec.year <= YEAR_RANGE[1]:
                    raise ValueError(f"paper {rec.id} year {rec.year} is outside {YEAR_RANGE}")
                if any(rid < 0 for rid in rec.references):
                    raise ValueError(f"paper {rec.id} has a negative reference id")
                if len(set(rec.references)) != len(rec.references):
                    raise ValueError(f"paper {rec.id} has duplicate references")
                if rec.id in rec.references:
                    raise ValueError(f"paper {rec.id} references itself")
                kw = rec.keywords
                if type(kw) is not tuple or any(a >= b for a, b in zip(kw, kw[1:])):
                    raise ValueError(f"paper {rec.id} keywords are not a strictly ascending tuple")
                for k in kw:
                    if not k or "," in k or " ".join(k.split()).casefold() != k:
                        raise ValueError(f"paper {rec.id} keyword {k!r} is not normalized")
                for name in rec.authors:
                    if not name or "," in name or not _one_trimmed_line(name):
                        raise ValueError(f"paper {rec.id} author {name!r} is not a trimmed name")
                if not _one_trimmed_line(rec.title):
                    raise ValueError(f"paper {rec.id} title {rec.title!r} is not one trimmed line")
                for tag, text in (("venue", rec.venue), ("abstract", rec.abstract)):
                    if text is not None and not (text and _one_trimmed_line(text)):
                        raise ValueError(
                            f"paper {rec.id} {tag} {text!r} is neither None nor one trimmed line"
                        )
            self.records[rec.id] = rec
            for f in rec.fields:
                by_field.setdefault(f, []).append(rec.id)
            by_year.setdefault(rec.year, []).append(rec.id)
        self.by_field = {f: tuple(ids) for f, ids in by_field.items()}
        self.by_year = {y: tuple(ids) for y, ids in by_year.items()}

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
        """Ascending ids filtered by field membership and/or publication window."""
        ids = self.records if field is None else self.by_field.get(field, ())
        if window is None:
            return list(ids)
        return [pid for pid in ids if window.contains(self.records[pid].year)]

    def years(self) -> list[int]:
        return sorted(self.by_year)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.taxonomy == other.taxonomy
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return f"Corpus({len(self.records)} records)"


def corpus_stats(corpus: Corpus) -> MetricReport:
    """Per-field paper counts plus corpus-wide totals.

    Raises on an empty corpus: there is nothing to report.
    """
    if len(corpus) == 0:
        raise AnalysisError("corpus is empty, no stats to report")
    n = len(corpus)
    multi = sum(1 for rec in corpus.records.values() if len(rec.fields) > 1)
    years = corpus.years()
    mean_refs = fsum(len(rec.references) for rec in corpus.records.values()) / n
    mean_kw = fsum(len(rec.keywords) for rec in corpus.records.values()) / n
    report = MetricReport(
        name="corpus-stats",
        columns=("field_abbr", "papers", "share"),
        metadata=base_metadata(
            "corpus-stats",
            records=n,
            multi_field_fraction=multi / n,
            year_min=years[0],
            year_max=years[-1],
            mean_references=mean_refs,
            mean_keywords=mean_kw,
        ),
    )
    for f in corpus.taxonomy.indices:
        count = len(corpus.by_field.get(f, ()))
        report.add_row(corpus.taxonomy.abbr(f), count, count / n)
    return report
