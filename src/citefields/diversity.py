"""Entropy-style interdisciplinarity scores from references and keywords.

Two per-paper scores, each averaged over a field's papers inside a window:

* reference diversity: Shannon entropy of the per-field distribution of a
  paper's resolved references;
* keyword diversity: entropy-like sum over fields of -x log x, where x is
  the fraction of the paper's keywords shared with that field's keyword
  pool (``build_keyword_sets``, one frozenset per field). The x values are
  overlaps, deliberately not renormalized unless a flag asks for it.

Logs are natural, which only rescales values. ``paper_diversity`` scores
each paper in the window once, as a column over its ascending ids (the rows
of ``impact.ImpactScores``) with None where a score is undefined (no
resolved references, or no keywords). A field's mean is the ``fsum`` of its
papers' defined scores over their count, so their order cannot change a bit
of it; undefined scores are left out of means and coverage counts.
"""

from __future__ import annotations

from math import fsum, log

from .errors import AnalysisError
from .graph import FULL_COUNT, check_multiplicity, field_ref_counts
from .records import Corpus, PaperTable, TimeWindow
from .report import MetricReport, base_metadata

WINDOW_LOCAL = "window-local"
CORPUS_GLOBAL = "corpus-global"

RDI = "rdi"
KDI = "kdi"


def build_keyword_sets(
    corpus: Corpus | PaperTable,
    window: TimeWindow | None = None,
    scope: str = WINDOW_LOCAL,
) -> tuple[frozenset[str], ...]:
    """Each field's keyword pool, indexed by field: the union of the keywords
    of its papers inside the window under ``window-local`` (so decades are
    compared self-contained), of all its papers under ``corpus-global``."""
    if scope not in (WINDOW_LOCAL, CORPUS_GLOBAL):
        raise ValueError(f"unknown keyword scope {scope!r}")
    effective = None if scope == CORPUS_GLOBAL else window
    papers = corpus.table.require("keywords")
    pools: list[set[str]] = [set() for _ in papers.taxonomy.indices]
    for year, fields, keywords in zip(papers.year, papers.fields, papers.keywords):
        if keywords and (effective is None or effective.contains(year)):
            for f in fields:
                pools[f].update(keywords)
    return tuple(frozenset(p) for p in pools)


def _entropy_sum(fractions) -> float:
    # 0 log 0 := 0 and x=1 contributes 0; "+ 0.0" normalizes -0.0 away.
    return fsum(-x * log(x) for x in fractions if x > 0.0) + 0.0


def rdi_paper(corpus: Corpus | PaperTable, pid: int,
              multiplicity: str = FULL_COUNT) -> float | None:
    """Entropy of one paper's per-field reference fractions; None if no resolved refs."""
    check_multiplicity(multiplicity)
    papers = corpus.table.require("references")
    r = papers.row.get(pid)
    if r is None:
        raise AnalysisError(f"unknown paper id {pid}")
    cited = papers.references[r]
    if not cited:
        return None
    counts = field_ref_counts(papers, cited, multiplicity)
    return _entropy_sum(counts[f] / len(cited) for f in sorted(counts))


def kdi_paper(
    corpus: Corpus | PaperTable,
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
    papers = corpus.table.require("keywords")
    r = papers.row.get(pid)
    if r is None:
        raise AnalysisError(f"unknown paper id {pid}")
    kp = frozenset(papers.keywords[r])
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
    corpus: Corpus | PaperTable,
    metric: str,
    window: TimeWindow | None = None,
    keyword_scope: str = WINDOW_LOCAL,
    normalized_kdi: bool = False,
    multiplicity: str = FULL_COUNT,
) -> list[float | None]:
    """One metric's score of each paper of ``papers_in(window=window)``,
    row by row, None where it is undefined. For ``kdi`` the keyword pools
    are built for the window under ``keyword_scope``."""
    if metric not in (RDI, KDI):
        raise ValueError(f"metric must be {RDI!r} or {KDI!r}")
    check_multiplicity(multiplicity)
    papers = corpus.table
    ids, rows = papers.ids, papers.papers_in(window=window)
    if metric == RDI:
        return [rdi_paper(papers, ids[r], multiplicity) for r in rows]
    pools = build_keyword_sets(papers, window, keyword_scope)
    return [kdi_paper(papers, pools, ids[r], normalized=normalized_kdi) for r in rows]


def rank_order(values: dict[int, float]) -> list[int]:
    """Fields sorted descending by value; ties broken by ascending field index."""
    return sorted(values, key=lambda f: (-values[f], f))


def rank_fields(
    corpus: Corpus | PaperTable,
    metric: str,
    windows: list[TimeWindow],
    keyword_scope: str = WINDOW_LOCAL,
    normalized_kdi: bool = False,
    multiplicity: str = FULL_COUNT,
) -> MetricReport:
    """Per-window field ranking by one diversity metric.

    A field's value is the mean score of its papers in the window that have
    one, and its coverage is their count; a field without one gets empty
    value and rank cells and coverage 0. The mode flags name the
    multiplicity rule, which ``paper_diversity`` checks, under either metric.
    """
    if not windows:
        raise ValueError("at least one window is required")
    mode_flags = f"log=natural;multiplicity={multiplicity}"
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
    papers = corpus.table
    taxonomy = papers.taxonomy
    for window in windows:
        scores = paper_diversity(
            papers, metric, window, keyword_scope, normalized_kdi, multiplicity)
        per_field: dict[int, list[float]] = {}
        for r, v in zip(papers.papers_in(window=window), scores):
            if v is not None:
                for f in papers.fields[r]:
                    per_field.setdefault(f, []).append(v)
        values = {f: fsum(vs) / len(vs) for f, vs in per_field.items()}
        ranks = {f: i + 1 for i, f in enumerate(rank_order(values))}
        for f in taxonomy.indices:
            report.add_row(
                window.start, window.end, taxonomy.abbr(f), metric,
                values.get(f), len(per_field.get(f, ())), mode_flags, ranks.get(f),
            )
    return report
