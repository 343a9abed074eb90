"""Citation-based impact indicators and the diversity-vs-impact bucket analysis.

* cp: citations received within the first five calendar years (publication
  year plus four), first-author self-citations excluded (``citations_received``);
* jif: two-year impact factor of the paper's venue at publication time,
  from the corpus itself (citations made in year y to the venue's papers of
  y-1 and y-2, over the venue's paper count in those years);
* top-cited: in the top 5% of the analyzed population by cp, ties at the
  cutoff included (per field: ``top_cited_counts``).

The bucket analysis reports the mean impact per equal-width bucket of any
per-paper metric's observed range (left-closed, last one closed).
"""

from __future__ import annotations

from functools import cache
from math import ceil, fsum
from typing import Callable, NamedTuple

from .errors import AnalysisError
from .graph import CitationGraph
from .records import Corpus, PaperTable, TimeWindow
from .report import MetricReport, base_metadata, window_label
from .slotted import Slotted

DEFAULT_HORIZON = 5
TOP_SHARE = 0.05


class PaperImpact(NamedTuple):
    cp: int
    jif: float | None
    top_cited: bool


class ImpactScores(Slotted):
    __slots__ = ("per_paper", "window")

    def __init__(self, per_paper: dict[int, PaperImpact], window: TimeWindow | None):
        self.per_paper = per_paper
        self.window = window


def citations_received(
    graph: CitationGraph, corpus: Corpus | PaperTable, pid: int,
    horizon: int | None = DEFAULT_HORIZON,
) -> tuple[int, ...]:
    """Ascending ids of the papers whose citation of ``pid`` counts toward
    its cp: citers published in its year or the h-1 following years for a
    horizon of h (None keeps all) that do not share its first author
    (``records.author_key``)."""
    papers = corpus.table
    years, first_author = papers.year, papers.first_author
    year = years.get(pid)
    if year is None:
        raise AnalysisError(f"unknown paper id {pid}")
    key = first_author[pid]
    return tuple(
        q for q in graph.in_edges.get(pid, ())
        if (horizon is None or 0 <= years[q] - year <= horizon - 1)
        and (key is None or first_author[q] != key)
    )


def _jif_lookup(
    corpus: Corpus | PaperTable, graph: CitationGraph,
) -> Callable[[str, int], float | None]:
    """Two-year impact factor of any (venue, year), from one pass over the corpus.

    Tallies papers per (venue, year) and, per (venue, citing year), the
    citations made that year to the venue's papers of the two years before;
    papers without a venue are left out. The lookup is None (undefined, not
    zero) when the venue published nothing in the two prior years.
    """
    years = corpus.table.year
    papers: dict[tuple[str, int], int] = {}
    cites: dict[tuple[str, int], int] = {}
    for pid, venue in corpus.table.venue.items():
        if not venue:
            continue
        year = years[pid]
        key = (venue, year)
        papers[key] = papers.get(key, 0) + 1
        for q in graph.in_edges.get(pid, ()):
            citing_year = years[q]
            if citing_year - year in (1, 2):
                cited_in = (venue, citing_year)
                cites[cited_in] = cites.get(cited_in, 0) + 1

    @cache  # one shared value per (venue, year), not one float per paper
    def lookup(venue: str, year: int) -> float | None:
        denom = papers.get((venue, year - 1), 0) + papers.get((venue, year - 2), 0)
        return cites.get((venue, year), 0) / denom if denom else None

    return lookup


def compute_impact_scores(
    graph: CitationGraph,
    corpus: Corpus | PaperTable,
    window: TimeWindow | None = None,
    horizon: int | None = DEFAULT_HORIZON,
) -> ImpactScores:
    """Score every paper in the window; flag the top 5% by cp (ties included)."""
    papers = corpus.table
    population = papers.papers_in(window=window)
    if not population:
        raise AnalysisError("no papers in the analyzed window")
    jif_of = _jif_lookup(papers, graph)
    cps = {pid: len(citations_received(graph, papers, pid, horizon)) for pid in population}
    k = ceil(TOP_SHARE * len(population))
    cutoff = sorted(cps.values(), reverse=True)[k - 1]
    per_paper = {}
    venues, years = papers.venue, papers.year
    for pid in population:
        venue = venues[pid]
        j = jif_of(venue, years[pid]) if venue else None
        per_paper[pid] = PaperImpact(cp=cps[pid], jif=j, top_cited=cps[pid] >= cutoff)
    return ImpactScores(per_paper=per_paper, window=window)


def top_cited_counts(
    scores: ImpactScores, corpus: Corpus | PaperTable, hit_rate: bool = False
) -> list[tuple[int, int]]:
    """(numerator, denominator) of each field's top-cited share, indexed by
    field: its papers in the top-cited set over the size of the set or, with
    ``hit_rate``, over its papers among those scored (0 for none)."""
    fields_of = corpus.table.fields
    n = len(corpus.taxonomy)
    in_top = [0] * n
    in_population = [0] * n
    for pid, s in scores.per_paper.items():
        for f in fields_of[pid]:
            in_population[f] += 1
            in_top[f] += s.top_cited
    top_size = sum(s.top_cited for s in scores.per_paper.values())
    return [(in_top[f], in_population[f] if hit_rate else top_size) for f in range(n)]


def bucket_assignment(values: dict[int, float], n_buckets: int) -> tuple[dict[int, int], float, float, bool]:
    """Equal-width bucket index per paper over the observed value range.

    Intervals are left-closed; the last is also right-closed. A degenerate
    range (all values identical) collapses to one bucket. Values within
    1e-9 bucket-widths of a boundary are treated as sitting exactly on it
    (still left-closed), so assignments survive positive rescaling of the
    metric: entropy-style metrics routinely produce values exactly on
    boundaries, where bare floor() would flip on one-ulp perturbations.
    Returns (assignment, lo, hi, degenerate).
    """
    if not values:
        raise AnalysisError("no papers with a defined metric value")
    lo = min(values.values())
    hi = max(values.values())
    if lo == hi:
        return {pid: 0 for pid in values}, lo, hi, True
    span = hi - lo
    assignment = {}
    for pid, v in values.items():
        raw = n_buckets * (v - lo) / span
        nearest = round(raw)
        idx = int(nearest) if abs(raw - nearest) <= 1e-9 else int(raw)
        assignment[pid] = min(max(idx, 0), n_buckets - 1)
    return assignment, lo, hi, False


def bucket_impact(
    metric_values: dict[int, float],
    scores: ImpactScores,
    n_buckets: int = 5,
    metric_name: str = "metric",
) -> MetricReport:
    """Mean impact per equal-width bucket of a per-paper metric.

    Every paper with a defined metric value lands in exactly one bucket;
    empty buckets are emitted with count 0 and missing means.
    """
    missing = [pid for pid in metric_values if pid not in scores.per_paper]
    if missing:
        raise AnalysisError(f"{len(missing)} papers lack impact scores (e.g. {missing[0]})")
    assignment, lo, hi, degenerate = bucket_assignment(metric_values, n_buckets)
    effective = 1 if degenerate else n_buckets
    width = (hi - lo) / effective if not degenerate else 0.0
    report = MetricReport(
        name="buckets",
        columns=(
            "bucket_index", "bucket_lo", "bucket_hi", "count",
            "mean_cp", "mean_jif", "top_cited_share",
        ),
        metadata=base_metadata(
            "buckets",
            metric=metric_name,
            n_buckets=effective,
            degenerate=str(degenerate).lower(),
            population=len(metric_values),
            window=window_label(scores.window),
        ),
    )
    members: dict[int, list[int]] = {b: [] for b in range(effective)}
    for pid, bucket in assignment.items():
        members[bucket].append(pid)
    for b in range(effective):
        ids = members[b]
        b_lo = lo + b * width
        b_hi = hi if b == effective - 1 else lo + (b + 1) * width
        if not ids:
            report.add_row(b + 1, b_lo, b_hi, 0, None, None, None)
            continue
        mean_cp = fsum(scores.per_paper[p].cp for p in ids) / len(ids)
        jifs = [scores.per_paper[p].jif for p in ids if scores.per_paper[p].jif is not None]
        mean_jif = fsum(jifs) / len(jifs) if jifs else None
        top_share = sum(1 for p in ids if scores.per_paper[p].top_cited) / len(ids)
        report.add_row(b + 1, b_lo, b_hi, len(ids), mean_cp, mean_jif, top_share)
    return report
