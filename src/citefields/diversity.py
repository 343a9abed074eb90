"""Entropy-style interdisciplinarity scores from references and keywords.

Two per-paper scores, each averaged over a field's papers inside a window:

* reference diversity: Shannon entropy of the per-field distribution of a
  paper's resolved references;
* keyword diversity: entropy-like sum over fields of -x log x, where x is
  the fraction of the paper's keywords shared with that field's keyword
  pool. The x values are overlaps, not a probability distribution, and are
  deliberately not renormalized; a normalized variant is available behind
  a flag.

Logs are natural; the base only rescales values and never changes field
rankings, and is recorded in report metadata. Papers for which a score is
undefined (no resolved references, or no keywords) are excluded from field
means and reported through the coverage count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log

from .errors import AnalysisError
from .graph import CitationGraph, per_paper_field_refs
from .records import Corpus, TimeWindow
from .report import MetricReport, base_metadata
from .taxonomy import FieldTaxonomy

WINDOW_LOCAL = "window-local"
CORPUS_GLOBAL = "corpus-global"

RDI = "rdi"
KDI = "kdi"


@dataclass(frozen=True)
class FieldKeywordSets:
    """Per-field keyword pools: the union of keywords of each field's papers."""

    per_field: tuple[frozenset[str], ...]

    def pool(self, field: int) -> frozenset[str]:
        return self.per_field[field]


def build_keyword_sets(
    corpus: Corpus,
    window: TimeWindow | None = None,
    scope: str = WINDOW_LOCAL,
) -> FieldKeywordSets:
    """Collect each field's keyword pool from its papers.

    ``window-local`` restricts pool building to papers inside the window
    (decade-against-decade comparisons stay self-contained);
    ``corpus-global`` always pools over the whole corpus.
    """
    if scope not in (WINDOW_LOCAL, CORPUS_GLOBAL):
        raise ValueError(f"unknown keyword scope {scope!r}")
    effective = None if scope == CORPUS_GLOBAL else window
    pools: list[set[str]] = [set() for _ in corpus.taxonomy.indices]
    for pid in corpus:
        rec = corpus[pid]
        if effective is not None and not effective.contains(rec.year):
            continue
        for f in rec.fields:
            pools[f].update(rec.keywords)
    return FieldKeywordSets(tuple(frozenset(p) for p in pools))


def _entropy_sum(fractions) -> float:
    # 0 log 0 := 0 and x=1 contributes 0; "+ 0.0" normalizes -0.0 away.
    return fsum(-x * log(x) for x in fractions if x > 0.0) + 0.0


def rdi_paper(graph: CitationGraph, corpus: Corpus, pid: int) -> float | None:
    """Entropy of one paper's per-field reference fractions; None if no resolved refs."""
    counts, total = per_paper_field_refs(graph, corpus, pid)
    if total == 0:
        return None
    return _entropy_sum(counts[f] / total for f in sorted(counts))


def kdi_paper(
    corpus: Corpus,
    keyword_sets: FieldKeywordSets,
    pid: int,
    normalized: bool = False,
) -> float | None:
    """Keyword-overlap diversity of one paper; None if it has no keywords."""
    if pid not in corpus:
        raise AnalysisError(f"unknown paper id {pid}")
    kp = corpus[pid].keywords
    if not kp:
        return None
    overlaps = [
        len(keyword_sets.pool(f) & kp) / len(kp)
        for f in corpus.taxonomy.indices
    ]
    if normalized:
        total = fsum(overlaps)
        if total <= 0.0:
            return 0.0
        overlaps = [x / total for x in overlaps]
    return _entropy_sum(x for x in overlaps if x > 0.0)


def _field_mean(values: list[float], field: int, what: str) -> tuple[float, int]:
    if not values:
        raise AnalysisError(f"no papers with defined {what} for field {field}")
    return fsum(values) / len(values), len(values)


def rdi_field(
    graph: CitationGraph,
    corpus: Corpus,
    field: int,
    window: TimeWindow | None = None,
) -> tuple[float, int]:
    """Mean per-paper reference diversity over a field's papers in the window.

    Returns (mean, coverage); coverage counts the papers with at least one
    resolved reference. Raises when no paper qualifies.
    """
    values = []
    for pid in corpus.papers_in(field=field, window=window):
        v = rdi_paper(graph, corpus, pid)
        if v is not None:
            values.append(v)
    return _field_mean(values, field, "reference diversity")


def kdi_field(
    corpus: Corpus,
    keyword_sets: FieldKeywordSets,
    field: int,
    window: TimeWindow | None = None,
    normalized: bool = False,
) -> tuple[float, int]:
    """Mean per-paper keyword diversity over a field's papers in the window."""
    values = []
    for pid in corpus.papers_in(field=field, window=window):
        v = kdi_paper(corpus, keyword_sets, pid, normalized=normalized)
        if v is not None:
            values.append(v)
    return _field_mean(values, field, "keyword diversity")


def rank_order(values: dict[int, float]) -> list[int]:
    """Fields sorted descending by value; ties broken by ascending field index."""
    return sorted(values, key=lambda f: (-values[f], f))


def rank_fields(
    graph: CitationGraph,
    corpus: Corpus,
    metric: str,
    windows: list[TimeWindow],
    keyword_scope: str = WINDOW_LOCAL,
    normalized_kdi: bool = False,
) -> MetricReport:
    """Per-window field ranking by one diversity metric.

    Fields where the metric is undefined appear with empty value/rank cells
    rather than aborting the report.
    """
    if metric not in (RDI, KDI):
        raise ValueError(f"metric must be {RDI!r} or {KDI!r}")
    if not windows:
        raise ValueError("at least one window is required")
    mode_flags = f"log=natural;multiplicity={graph.multiplicity}"
    if metric == KDI:
        mode_flags += f";keywords={keyword_scope}"
        if normalized_kdi:
            mode_flags += ";normalized"
    report = MetricReport(
        name="rank",
        columns=(
            "window_start", "window_end", "field_abbr", "metric",
            "value", "coverage", "mode_flags", "rank",
        ),
        metadata=base_metadata("rank", metric=metric, mode_flags=mode_flags),
    )
    taxonomy: FieldTaxonomy = corpus.taxonomy
    for window in windows:
        sets = None
        if metric == KDI:
            sets = build_keyword_sets(corpus, window, keyword_scope)
        values: dict[int, float] = {}
        coverage: dict[int, int] = {}
        for f in taxonomy.indices:
            try:
                if metric == RDI:
                    v, c = rdi_field(graph, corpus, f, window)
                else:
                    v, c = kdi_field(corpus, sets, f, window, normalized=normalized_kdi)
            except AnalysisError:
                continue
            values[f] = v
            coverage[f] = c
        ranks = {f: i + 1 for i, f in enumerate(rank_order(values))}
        for f in taxonomy.indices:
            report.add_row(
                window.start, window.end, taxonomy.abbr(f), metric,
                values.get(f), coverage.get(f, 0), mode_flags, ranks.get(f),
            )
    return report
