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
        """Parse the CLI form ``START:END``."""
        try:
            start_s, end_s = text.split(":")
            return cls(int(start_s), int(end_s))
        except ValueError as exc:
            raise ValueError(f"bad window {text!r}, expected START:END") from exc

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


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
    validated, keywords included: each must be as the parser stores it
    (non-empty, trimmed, single-spaced, case-folded, without a comma), so
    ``serialize_corpus`` writes keywords that re-parse equal.
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
                if not rec.fields:
                    raise ValueError(f"paper {rec.id} has no fields")
                if any(f < 0 or f >= n_fields for f in rec.fields):
                    raise ValueError(f"paper {rec.id} has field index outside taxonomy")
                if len(set(rec.references)) != len(rec.references):
                    raise ValueError(f"paper {rec.id} has duplicate references")
                if rec.id in rec.references:
                    raise ValueError(f"paper {rec.id} references itself")
                kw = rec.keywords
                if type(kw) is not tuple or any(a >= b for a, b in zip(kw, kw[1:])):
                    raise ValueError(f"paper {rec.id} keywords are not a strictly ascending tuple")
                # As the parser stores them, so that a serialized corpus re-parses equal.
                for k in kw:
                    if not k or "," in k or " ".join(k.split()).casefold() != k:
                        raise ValueError(f"paper {rec.id} keyword {k!r} is not normalized")
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
