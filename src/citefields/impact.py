"""Citation-based impact indicators and the diversity-vs-impact bucket analysis.

* cp: citations received within the first five calendar years (publication
  year plus four), first-author self-citations excluded (``citations_received``);
* jif: two-year impact factor of the paper's venue at publication time,
  from the corpus itself (citations made in year y to the venue's papers of
  y-1 and y-2, over the venue's paper count in those years);
* top-cited: in the top 5% of the analyzed population by cp, ties at the
  cutoff included, papers with no counted citation never (so the set can
  fall short of 5%; per field: ``top_cited_counts``).

Scores are held as columns over the scored ids (``ImpactScores``), with no
object per paper; a paper is top-cited when its cp reaches the cutoff.

The bucket analysis reports the mean impact per equal-width bucket of the
observed range (left-closed, last one closed) of a per-paper metric column
over the scores' rows, such as ``paper_diversity``'s, leaving out None.
"""

from __future__ import annotations

from functools import cache
from math import ceil, fsum
from typing import Callable

from .errors import AnalysisError
from .records import Corpus, PaperTable, TimeWindow
from .report import MetricReport, base_metadata, window_label
from .slotted import Slotted

DEFAULT_HORIZON = 5
TOP_SHARE = 0.05


class ImpactScores(Slotted):
    """The scores of the papers of ``window``, as columns by row: ``ids``
    ascending, their ``cp`` and their ``jif`` (None where undefined), and
    ``cutoff``, the least cp of the top-cited set and at least 1, so that a
    paper is top-cited when its cp is at least ``cutoff``."""

    __slots__ = ("ids", "cp", "jif", "cutoff", "window")

    @property
    def per_paper(self) -> list[int]:
        """``ids``, kept as the name ``perfbench/traced.py`` takes the
        population's size from."""
        return self.ids


def _check_horizon(horizon: int | None) -> None:
    """Refuse a horizon below one year: it counts no citation, so every
    paper would be top-cited."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1 year or None, got {horizon}")


def citations_received(
    corpus: Corpus | PaperTable, pid: int, horizon: int | None = DEFAULT_HORIZON,
) -> tuple[int, ...]:
    """Ascending ids of the papers whose citation of ``pid`` counts toward
    its cp: citers published in its year or the h-1 following years for a
    horizon of h (None keeps all) that do not share its first author
    (``records.author_key``)."""
    _check_horizon(horizon)
    papers = corpus.table.require("in_edges", "first_author")
    r = papers.row.get(pid)
    if r is None:
        raise AnalysisError(f"unknown paper id {pid}")
    ids, years, first_author = papers.ids, papers.year, papers.first_author
    year, key = years[r], first_author[r]
    # Made from a list, so the tuple is allocated at its size: one grown
    # from a generator is shrunk into the free list of a smaller size, and
    # 10k calls leave ~0.4 MiB parked there.
    return tuple([
        ids[q] for q in papers.in_edges[r]
        if (horizon is None or 0 <= years[q] - year <= horizon - 1)
        and (key is None or first_author[q] != key)
    ])


def _jif_lookup(corpus: Corpus | PaperTable) -> Callable[[str, int], float | None]:
    """Two-year impact factor of any (venue, year), from one pass over the corpus.

    Tallies papers per (venue, year) and, per (venue, citing year), the
    citations made that year to the venue's papers of the two years before;
    papers without a venue are left out. The lookup is None (undefined, not
    zero) when the venue published nothing in the two prior years.
    """
    table = corpus.table.require("in_edges", "venue")
    years, in_edges = table.year, table.in_edges
    papers: dict[tuple[str, int], int] = {}
    cites: dict[tuple[str, int], int] = {}
    for r, venue in enumerate(table.venue):
        if not venue:
            continue
        year = years[r]
        key = (venue, year)
        papers[key] = papers.get(key, 0) + 1
        for q in in_edges[r]:
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
    corpus: Corpus | PaperTable,
    window: TimeWindow | None = None,
    horizon: int | None = DEFAULT_HORIZON,
) -> ImpactScores:
    """Score every paper in the window; the top 5% by cp (ties included)
    are those at or above the cutoff, which is at least 1."""
    _check_horizon(horizon)
    papers = corpus.table
    rows = papers.papers_in(window=window)
    if not rows:
        raise AnalysisError("no papers in the analyzed window")
    jif_of = _jif_lookup(papers)
    ids = [papers.ids[r] for r in rows]
    cp = [len(citations_received(papers, pid, horizon)) for pid in ids]
    cutoff = max(sorted(cp, reverse=True)[ceil(TOP_SHARE * len(ids)) - 1], 1)
    venues, years = papers.venue, papers.year
    jif = [jif_of(venues[r], years[r]) if venues[r] else None for r in rows]
    return ImpactScores(ids, cp, jif, cutoff, window)


def top_cited_counts(
    scores: ImpactScores, corpus: Corpus | PaperTable, hit_rate: bool = False
) -> list[tuple[int, int]]:
    """(numerator, denominator) of each field's top-cited share, indexed by
    field: its papers in the top-cited set over the size of the set or, with
    ``hit_rate``, over its papers among those scored (0 for none)."""
    fields_of, row = corpus.table.fields, corpus.table.row
    n = len(corpus.taxonomy)
    in_top = [0] * n
    in_population = [0] * n
    cutoff = scores.cutoff
    top_size = 0
    for pid, cp in zip(scores.ids, scores.cp):
        top = cp >= cutoff
        top_size += top
        for f in fields_of[row[pid]]:
            in_population[f] += 1
            in_top[f] += top
    return [(in_top[f], in_population[f] if hit_rate else top_size) for f in range(n)]


def bucket_assignment(values: list[float], n_buckets: int) -> tuple[list[int], float, float, bool]:
    """Equal-width bucket index of each value over the observed value range.

    Intervals are left-closed; the last is also right-closed. A degenerate
    range (all values identical) collapses to one bucket. Values within
    1e-9 bucket-widths of a boundary are treated as sitting exactly on it
    (still left-closed), so assignments survive positive rescaling of the
    metric: entropy-style metrics routinely produce values exactly on
    boundaries, where bare floor() would flip on one-ulp perturbations.
    Returns (assignment, lo, hi, degenerate), the assignment by position.
    """
    if not values:
        raise AnalysisError("no papers with a defined metric value")
    lo = min(values)
    hi = max(values)
    if lo == hi:
        return [0] * len(values), lo, hi, True
    span = hi - lo
    assignment = []
    for v in values:
        raw = n_buckets * (v - lo) / span
        nearest = round(raw)
        idx = int(nearest) if abs(raw - nearest) <= 1e-9 else int(raw)
        assignment.append(min(max(idx, 0), n_buckets - 1))
    return assignment, lo, hi, False


def bucket_impact(
    metric_values: list[float | None],
    scores: ImpactScores,
    n_buckets: int = 5,
    metric_name: str = "metric",
) -> MetricReport:
    """Mean impact per equal-width bucket of a per-paper metric, given as a
    column over ``scores.ids`` with None where it is undefined.

    Every paper with a defined metric value lands in exactly one bucket;
    empty buckets are emitted with count 0 and missing means.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be at least 1, got {n_buckets}")
    if len(metric_values) != len(scores.ids):
        raise AnalysisError(f"{len(metric_values)} metric values for {len(scores.ids)} scored papers")
    rows = [r for r, v in enumerate(metric_values) if v is not None]
    assignment, lo, hi, degenerate = bucket_assignment([metric_values[r] for r in rows], n_buckets)
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
            population=len(rows),
            window=window_label(scores.window),
        ),
    )
    members: list[list[int]] = [[] for _ in range(effective)]
    for row, b in zip(rows, assignment):
        members[b].append(row)
    cps, jifs, cutoff = scores.cp, scores.jif, scores.cutoff
    for b in range(effective):
        bucket = members[b]
        b_lo = lo + b * width
        b_hi = hi if b == effective - 1 else lo + (b + 1) * width
        if not bucket:
            report.add_row(b + 1, b_lo, b_hi, 0, None, None, None)
            continue
        mean_cp = fsum(cps[r] for r in bucket) / len(bucket)
        defined = [jifs[r] for r in bucket if jifs[r] is not None]
        mean_jif = fsum(defined) / len(defined) if defined else None
        top_share = sum(1 for r in bucket if cps[r] >= cutoff) / len(bucket)
        report.add_row(b + 1, b_lo, b_hi, len(bucket), mean_cp, mean_jif, top_share)
    return report
