"""Citation-based impact indicators and the diversity-vs-impact bucket analysis.

Three per-paper indicators:

* cp: citations received within the first five calendar years (publication
  year plus four), first-author self-citations excluded;
* jif: two-year impact factor of the paper's venue at publication time,
  derived from the corpus itself (citations made in year y to the venue's
  papers of y-1 and y-2, over the venue's paper count in those years);
* top-cited flag: membership in the top 5% of the analyzed population by
  cp, with ties at the cutoff all included.

The bucket analysis splits the observed range of any per-paper metric into
equal-width buckets (left-closed, last one closed) and reports the mean
impact per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil, fsum
from typing import Callable

from .errors import AnalysisError
from .graph import CitationGraph, citations_received
from .records import Corpus, TimeWindow
from .report import MetricReport, base_metadata, window_label

DEFAULT_HORIZON = 5
TOP_SHARE = 0.05


@dataclass(frozen=True)
class PaperImpact:
    cp: int
    jif: float | None
    top_cited: bool


@dataclass
class ImpactScores:
    per_paper: dict[int, PaperImpact]
    window: TimeWindow | None


def cp(graph: CitationGraph, corpus: Corpus, pid: int, horizon: int | None = DEFAULT_HORIZON) -> int:
    """Self-excluded citation count within the horizon (None = lifetime)."""
    return len(
        citations_received(
            graph, corpus, pid,
            horizon_years=horizon,
            exclude_first_author_self=True,
        )
    )


def _jif_lookup(corpus: Corpus, graph: CitationGraph) -> Callable[[str, int], float | None]:
    """Two-year impact factor of any (venue, year), from one pass over the corpus.

    Tallies papers per (venue, year) and, per (venue, citing year), the
    citations made in that year to the venue's papers of the two years
    before. Papers without a venue are left out.
    """
    papers: dict[tuple[str, int], int] = {}
    cites: dict[tuple[str, int], int] = {}
    for pid in corpus:
        rec = corpus[pid]
        if not rec.venue:
            continue
        key = (rec.venue, rec.year)
        papers[key] = papers.get(key, 0) + 1
        for q in graph.in_edges.get(pid, ()):
            citing_year = corpus[q].year
            if citing_year - rec.year in (1, 2):
                cited_in = (rec.venue, citing_year)
                cites[cited_in] = cites.get(cited_in, 0) + 1

    @cache  # one shared value per (venue, year), not one float per paper
    def lookup(venue: str, year: int) -> float | None:
        denom = papers.get((venue, year - 1), 0) + papers.get((venue, year - 2), 0)
        return cites.get((venue, year), 0) / denom if denom else None

    return lookup


def jif(corpus: Corpus, graph: CitationGraph, venue: str, year: int) -> float | None:
    """Corpus-derived two-year impact factor of a venue at a given year.

    None when the venue published nothing in the two prior years (the ratio
    is undefined, not zero).
    """
    return _jif_lookup(corpus, graph)(venue.strip(), year)


def compute_impact_scores(
    graph: CitationGraph,
    corpus: Corpus,
    window: TimeWindow | None = None,
    horizon: int | None = DEFAULT_HORIZON,
) -> ImpactScores:
    """Score every paper in the window; flag the top 5% by cp (ties included)."""
    population = corpus.papers_in(window=window)
    if not population:
        raise AnalysisError("no papers in the analyzed window")
    jif_of = _jif_lookup(corpus, graph)
    cps = {pid: cp(graph, corpus, pid, horizon) for pid in population}
    k = ceil(TOP_SHARE * len(population))
    by_cp = sorted(population, key=lambda p: (-cps[p], p))
    cutoff = cps[by_cp[k - 1]]
    top = {pid for pid in population if cps[pid] >= cutoff}
    per_paper = {}
    for pid in population:
        rec = corpus[pid]
        j = jif_of(rec.venue, rec.year) if rec.venue else None
        per_paper[pid] = PaperImpact(cp=cps[pid], jif=j, top_cited=pid in top)
    return ImpactScores(per_paper=per_paper, window=window)


def top_cited_share(
    scores: ImpactScores,
    corpus: Corpus,
    field: int,
    window: TimeWindow | None = None,
    hit_rate: bool = False,
) -> tuple[float, int, int]:
    """Field share of the top-cited set.

    Default: fraction of the top set carrying the field. ``hit_rate``
    instead reports the fraction of the field's papers that made the top
    set. Returns (fraction, numerator, denominator).
    """
    window = window or scores.window
    population = [
        pid for pid in scores.per_paper
        if window is None or window.contains(corpus[pid].year)
    ]
    if not population:
        raise AnalysisError("empty window for top-cited share")
    top = [pid for pid in population if scores.per_paper[pid].top_cited]
    in_field_top = sum(1 for pid in top if field in corpus[pid].fields)
    if hit_rate:
        field_pop = [pid for pid in population if field in corpus[pid].fields]
        if not field_pop:
            raise AnalysisError("field has no papers in the analyzed window")
        return in_field_top / len(field_pop), in_field_top, len(field_pop)
    return in_field_top / len(top), in_field_top, len(top)


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
    for pid in sorted(assignment):
        members[assignment[pid]].append(pid)
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
