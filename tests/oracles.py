"""Independent reference implementations used to cross-check the library.

Everything here recomputes results directly from raw PaperRecord data with
straight-line code (quadratic scans, raw-moment formulas), deliberately
avoiding the library's graph/index structures so a bug cannot cancel out
on both sides of a comparison. numpy serves here as a reference only; the
library does not load it for any analysis.
"""

from __future__ import annotations

import math

import numpy as np

from citefields import Corpus, TimeWindow


def normalize_keyword(raw: str) -> str:
    """One keyword as the parser stores it: trimmed, whitespace runs
    collapsed to one space, case-folded."""
    return " ".join(raw.split()).casefold()


def entropy_direct(fractions) -> float:
    total = 0.0
    for x in fractions:
        if x > 0.0:
            total += -x * math.log(x)
    return total


def field_counts_direct(corpus: Corpus, pid: int, multiplicity: str = "full") -> dict[int, float]:
    counts: dict[int, float] = {}
    for rid in corpus[pid].references:
        cited = corpus.records.get(rid)
        if cited is None:
            continue
        share = 1.0 if multiplicity == "full" else 1.0 / len(cited.fields)
        for f in sorted(cited.fields):
            counts[f] = counts.get(f, 0.0) + share
    return counts


def resolved_count_direct(corpus: Corpus, pid: int) -> int:
    return sum(1 for rid in corpus[pid].references if corpus.records.get(rid) is not None)


def rdi_direct(corpus: Corpus, pid: int, multiplicity: str = "full") -> float | None:
    total = resolved_count_direct(corpus, pid)
    if total == 0:
        return None
    counts = field_counts_direct(corpus, pid, multiplicity)
    return entropy_direct(counts[f] / total for f in sorted(counts))


def kdi_direct(
    corpus: Corpus, pools: dict[int, set[str]], pid: int, normalized: bool = False
) -> float | None:
    kp = set(corpus[pid].keywords)
    if not kp:
        return None
    fractions = []
    for f in sorted(pools):
        overlap = len(pools[f] & kp)
        if overlap:
            fractions.append(overlap / len(kp))
    if normalized:
        total = sum(fractions)
        fractions = [x / total for x in fractions]
    return entropy_direct(fractions)


def keyword_pools_direct(corpus: Corpus, window: TimeWindow | None = None) -> dict[int, set[str]]:
    """Each taxonomy field's keywords over the papers published in the window."""
    pools: dict[int, set[str]] = {f: set() for f in range(len(corpus.taxonomy))}
    for pid in corpus:
        p = corpus[pid]
        if window is None or window.contains(p.year):
            for f in p.fields:
                pools[f].update(p.keywords)
    return pools


def field_diversity_direct(
    corpus: Corpus,
    field: int,
    window: TimeWindow,
    metric: str,
    multiplicity: str = "full",
    keyword_scope: str = "window-local",
    normalized: bool = False,
) -> tuple[float | None, int]:
    """(mean, coverage) of a field's per-paper diversity in a window, by a corpus scan.

    The mean is None and the coverage 0 when no paper of the field in the
    window has a defined score.
    """
    pools = keyword_pools_direct(corpus, window if keyword_scope == "window-local" else None)
    values = []
    for pid in corpus:
        p = corpus[pid]
        if field not in p.fields or not window.contains(p.year):
            continue
        if metric == "rdi":
            v = rdi_direct(corpus, pid, multiplicity)
        else:
            v = kdi_direct(corpus, pools, pid, normalized)
        if v is not None:
            values.append(v)
    return (sum(values) / len(values) if values else None), len(values)


def citations_direct(
    corpus: Corpus,
    pid: int,
    horizon: int | None = None,
    exclude_self: bool = False,
) -> list[int]:
    """All-pairs scan: every corpus paper is checked against every other."""
    cited = corpus[pid]
    citers = []
    for qid in corpus:
        q = corpus[qid]
        if pid not in q.references:
            continue
        if horizon is not None and not (0 <= q.year - cited.year <= horizon - 1):
            continue
        if exclude_self and cited.authors and q.authors:
            if q.authors[0].strip().casefold() == cited.authors[0].strip().casefold():
                continue
        citers.append(qid)
    return sorted(citers)


def cp_direct(corpus: Corpus, pid: int, horizon: int | None = 5) -> int:
    return len(citations_direct(corpus, pid, horizon=horizon, exclude_self=True))


def jif_direct(corpus: Corpus, venue: str, year: int) -> float | None:
    """Two-year impact factor by scanning every corpus paper's reference list."""
    prior = {
        pid for pid in corpus
        if corpus[pid].venue == venue and corpus[pid].year in (year - 1, year - 2)
    }
    if not prior:
        return None
    cites = 0
    for qid in corpus:
        q = corpus[qid]
        if q.year == year:
            cites += sum(1 for rid in q.references if rid in prior)
    return cites / len(prior)


def acp_direct(corpus: Corpus, source_field: int, targets: set[int]) -> float:
    total = 0
    for qid in corpus:
        q = corpus[qid]
        if source_field not in q.fields:
            continue
        for rid in q.references:
            if rid in targets and corpus.records.get(rid) is not None:
                total += 1
    return total / len(targets)


def fraction_matrix_direct(
    corpus: Corpus,
    n_fields: int,
    window: TimeWindow | None = None,
    multiplicity: str = "full",
) -> list[list[float | None]]:
    flow = [[0.0] * n_fields for _ in range(n_fields)]
    for pid in corpus:
        p = corpus[pid]
        if window is not None and not window.contains(p.year):
            continue
        counts = field_counts_direct(corpus, pid, multiplicity)
        for i in sorted(p.fields):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    matrix: list[list[float | None]] = []
    for i in range(n_fields):
        total = sum(flow[i])
        matrix.append([flow[i][j] / total for j in range(n_fields)] if total > 0 else [None] * n_fields)
    return matrix


def bucket_split_direct(
    corpus: Corpus,
    focal: int,
    target: int,
    window: TimeWindow,
    threshold: float = 0.5,
    multiplicity: str = "full",
) -> tuple[set[int], set[int]]:
    bucket1: set[int] = set()
    bucket2: set[int] = set()
    for pid in corpus:
        p = corpus[pid]
        if focal not in p.fields or not window.contains(p.year):
            continue
        resolved = resolved_count_direct(corpus, pid)
        if resolved == 0:
            continue
        counts = field_counts_direct(corpus, pid, multiplicity)
        fraction = counts.get(target, 0.0) / resolved
        (bucket1 if fraction > threshold else bucket2).add(pid)
    return bucket1, bucket2


def row_totals_numpy(rows) -> list[float]:
    """Each row's total as numpy's ``sum(axis=1)`` adds it over a 2-D float64 array."""
    return [float(total) for total in np.asarray(rows, dtype=np.float64).sum(axis=1)]


def pearson_raw_moments(xs, ys) -> float:
    """Raw-moment covariance formula, distinct from the centered version."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    num = n * sxy - sx * sy
    den = math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    return num / den


def tau_direct(corpus: Corpus, focal: int, year: int) -> float | None:
    cross = same = 0
    for pid in corpus:
        p = corpus[pid]
        if p.year != year or focal not in p.fields:
            continue
        for rid in p.references:
            cited = corpus.records.get(rid)
            if cited is None:
                continue
            if cited.fields & p.fields:
                same += 1
            else:
                cross += 1
    return cross / same if same else None


def zeta_direct(corpus: Corpus, focal: int, year: int) -> float | None:
    """Cross/same citations made in the year into the focal field's papers.

    A citation is same-field when the citing paper carries the focal tag.
    """
    cross = same = 0
    for qid in corpus:
        q = corpus[qid]
        if q.year != year:
            continue
        for rid in q.references:
            cited = corpus.records.get(rid)
            if cited is None or focal not in cited.fields:
                continue
            if focal in q.fields:
                same += 1
            else:
                cross += 1
    return cross / same if same else None


def author_breadth_direct(corpus: Corpus, year: int) -> float | None:
    """Mean author field breadth of a year's papers, by a full corpus scan.

    For each paper of the year with authors: the distinct fields of every
    corpus paper up to and including the year that shares an author
    (trimmed, case-insensitive) with it.
    """

    def team(p) -> set[str]:
        return {a.strip().casefold() for a in p.authors}

    breadths = []
    for pid in corpus:
        p = corpus[pid]
        if p.year != year or not p.authors:
            continue
        fields: set[int] = set()
        for qid in corpus:
            q = corpus[qid]
            if q.year <= year and team(q) & team(p):
                fields |= q.fields
        breadths.append(len(fields))
    return sum(breadths) / len(breadths) if breadths else None
