"""Entropy-style interdisciplinarity scores from references and keywords.

Two per-paper scores, each averaged over a field's papers inside a window:

* reference diversity: Shannon entropy of the per-field distribution of a
  paper's resolved references;
* keyword diversity: entropy-like sum over fields of -x log x, where x is
  the fraction of the paper's keywords shared with that field's keyword
  pool. The x values are overlaps, not a probability distribution, and are
  deliberately not renormalized; a normalized variant is available behind
  a flag. ``build_keyword_sets`` returns the pools as one tuple of
  frozensets indexed by field.

Logs are natural; the base only rescales values and never changes field
rankings, and is recorded in report metadata. ``paper_diversity`` scores
each paper in the window once, whatever number of fields it carries; a
field's mean is the ``fsum`` of its papers' scores over their count, so
the order of the scores cannot change a bit of it. Papers for which a
score is undefined (no resolved references, or no keywords) are excluded
from field means and reported through the coverage count.
"""

from __future__ import annotations

from math import fsum, log

from .errors import AnalysisError
from .graph import CitationGraph, field_ref_counts
from .records import Corpus, TimeWindow
from .report import MetricReport, base_metadata

WINDOW_LOCAL = "window-local"
CORPUS_GLOBAL = "corpus-global"

RDI = "rdi"
KDI = "kdi"


def build_keyword_sets(
    corpus: Corpus,
    window: TimeWindow | None = None,
    scope: str = WINDOW_LOCAL,
) -> tuple[frozenset[str], ...]:
    """Collect each field's keyword pool, indexed by field: the union of the
    keywords of its papers.

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
    return tuple(frozenset(p) for p in pools)


def _entropy_sum(fractions) -> float:
    # 0 log 0 := 0 and x=1 contributes 0; "+ 0.0" normalizes -0.0 away.
    return fsum(-x * log(x) for x in fractions if x > 0.0) + 0.0


def rdi_paper(graph: CitationGraph, corpus: Corpus, pid: int) -> float | None:
    """Entropy of one paper's per-field reference fractions; None if no resolved refs."""
    if pid not in corpus:
        raise AnalysisError(f"unknown paper id {pid}")
    cited = graph.out_edges.get(pid, ())
    if not cited:
        return None
    counts = field_ref_counts(corpus, cited, graph.multiplicity)
    return _entropy_sum(counts[f] / len(cited) for f in sorted(counts))


def kdi_paper(
    corpus: Corpus,
    pools: tuple[frozenset[str], ...],
    pid: int,
    normalized: bool = False,
) -> float | None:
    """Keyword-overlap diversity of one paper against the per-field keyword
    pools of ``build_keyword_sets``; None if it has no keywords.

    The paper's keyword tuple is made a frozenset once per paper: a
    set-with-set intersection takes about half the time of one with a tuple.
    A field with an empty pool is skipped: its zero overlap adds nothing to
    either sum."""
    if pid not in corpus:
        raise AnalysisError(f"unknown paper id {pid}")
    kp = frozenset(corpus[pid].keywords)
    if not kp:
        return None
    overlaps = [
        len(pools[f] & kp) / len(kp)
        for f in corpus.taxonomy.indices if pools[f]
    ]
    if normalized:
        total = fsum(overlaps)
        if total <= 0.0:
            return 0.0
        overlaps = [x / total for x in overlaps]
    return _entropy_sum(x for x in overlaps if x > 0.0)


def paper_diversity(
    graph: CitationGraph,
    corpus: Corpus,
    metric: str,
    window: TimeWindow | None = None,
    keyword_scope: str = WINDOW_LOCAL,
    normalized_kdi: bool = False,
) -> dict[int, float]:
    """One metric's score of every paper published in the window, by ascending id.

    Papers whose score is undefined are left out. For ``kdi`` the field
    keyword pools are built for the window under ``keyword_scope``.
    """
    if metric not in (RDI, KDI):
        raise ValueError(f"metric must be {RDI!r} or {KDI!r}")
    pools = build_keyword_sets(corpus, window, keyword_scope) if metric == KDI else None
    values = {}
    for pid in corpus.papers_in(window=window):
        if metric == RDI:
            v = rdi_paper(graph, corpus, pid)
        else:
            v = kdi_paper(corpus, pools, pid, normalized=normalized_kdi)
        if v is not None:
            values[pid] = v
    return values


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

    A field's value is the mean score of its papers in the window that have
    one, and its coverage is their count. Fields without such a paper
    appear with empty value/rank cells and coverage 0 rather than aborting
    the report.
    """
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
    taxonomy = corpus.taxonomy
    for window in windows:
        scores = paper_diversity(graph, corpus, metric, window, keyword_scope, normalized_kdi)
        per_field: dict[int, list[float]] = {}
        for pid, v in scores.items():
            for f in corpus[pid].fields:
                per_field.setdefault(f, []).append(v)
        values = {f: fsum(vs) / len(vs) for f, vs in per_field.items()}
        ranks = {f: i + 1 for i, f in enumerate(rank_order(values))}
        for f in taxonomy.indices:
            report.add_row(
                window.start, window.end, taxonomy.abbr(f), metric,
                values.get(f), len(per_field.get(f, ())), mode_flags, ranks.get(f),
            )
    return report
