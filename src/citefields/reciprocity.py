"""Field-to-field citation fractions, reciprocity correlation, and the
return-citation bucket test.

The citation-fraction matrix row-normalizes field-level reference flow;
reciprocity is the Pearson correlation over the point set {(M[i][j],
M[j][i])} for all ordered field pairs, diagonal included by default (the
full grid), with an exclusion flag since self-pairs sit exactly on y = x
and inflate the correlation. ``pearson_report`` adds the same correlation
within each built-in group of related fields, resolved against the
taxonomy by abbreviation.

The bucket test asks whether papers that lean heavily on a target field
(more than half of their references) earn more return citations from that
field than papers that do not.
"""

from __future__ import annotations

from math import fsum, isnan, sqrt
from typing import TYPE_CHECKING, Collection, Iterable

from .errors import AnalysisError
from .graph import CitationGraph, field_flow, field_ref_counts
from .records import Corpus, TimeWindow
from .report import MetricReport, base_metadata, window_label
from .taxonomy import FieldTaxonomy

if TYPE_CHECKING:
    import numpy as np


# Related-field groupings used for per-group reciprocity. Groups overlap
# conceptually with one another; that is fine for separate correlations.
# A group whose members are not all in the taxonomy (custom taxonomies)
# gets no row.
_DEFAULT_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Data Science", ("DB", "DM", "IR", "NLP", "ML")),
    ("Theoretical CS", ("Algo", "PL", "SE")),
    ("Visualization", ("GRP", "CV", "HCI", "MUL")),
    ("Computer Networks", ("NETW", "SEC", "DIST", "WWW")),
)


def citation_fraction_matrix(
    graph: CitationGraph,
    corpus: Corpus,
    window: TimeWindow | None = None,
) -> np.ndarray:
    """M[i][j] = fraction of field i's resolved references that point to field j.

    Rows with no outflow are NaN. With a window, only references emitted by
    papers published inside it are counted.
    """
    import numpy as np  # see graph.field_flow

    n = len(corpus.taxonomy)
    flow = field_flow(graph, corpus, window)
    totals = flow.sum(axis=1)
    matrix = np.full((n, n), np.nan)
    for i in range(n):
        if totals[i] > 0:
            matrix[i] = flow[i] / totals[i]
    return matrix


def pearson(xs: list[float], ys: list[float]) -> float:
    """Plain centered-moment Pearson correlation; raises on degenerate variance."""
    n = len(xs)
    if n < 2:
        raise AnalysisError(f"need at least 2 points for a correlation, got {n}")
    mx = fsum(xs) / n
    my = fsum(ys) / n
    sxy = fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = fsum((x - mx) ** 2 for x in xs)
    syy = fsum((y - my) ** 2 for y in ys)
    if sxx <= 0.0 or syy <= 0.0:
        raise AnalysisError("degenerate variance: correlation undefined")
    return sxy / sqrt(sxx * syy)


def reciprocity_pearson(
    matrix: np.ndarray,
    members: Iterable[int] | None = None,
    include_diagonal: bool = True,
) -> tuple[float, int]:
    """Correlation between forward and return citation fractions.

    Point set: (M[i][j], M[j][i]) for every ordered pair of the member
    field indices (or of all fields); pairs with a missing coordinate are
    dropped. Returns (r, points used).
    """
    indices = sorted(members) if members is not None else range(matrix.shape[0])
    xs: list[float] = []
    ys: list[float] = []
    for i in indices:
        for j in indices:
            if i == j and not include_diagonal:
                continue
            x = matrix[i, j]
            y = matrix[j, i]
            if isnan(x) or isnan(y):
                continue
            xs.append(float(x))
            ys.append(float(y))
    return pearson(xs, ys), len(xs)


def acp(
    graph: CitationGraph,
    corpus: Corpus,
    source_field: int,
    target_papers: Collection[int],
) -> float:
    """Citations from a field's papers into a target set, per target paper."""
    if not target_papers:
        raise AnalysisError("empty target set")
    total = 0
    for pid in target_papers:
        for q in graph.in_edges.get(pid, ()):
            if source_field in corpus[q].fields:
                total += 1
    return total / len(target_papers)


def acp_bucket_test(
    graph: CitationGraph,
    corpus: Corpus,
    focal_field: int,
    target_field: int,
    focal_window: TimeWindow,
    threshold: float = 0.5,
) -> MetricReport:
    """Split focal papers by how heavily they reference the target field, then
    compare the target field's return citations into each bucket.

    Bucket 1: papers whose fraction of resolved references into the target
    field strictly exceeds the threshold; bucket 2: the rest. Only papers
    with at least one resolved reference can be classified. Return citations
    are counted corpus-wide (not window-limited) and normalized per bucket
    paper; the relative ACP difference lands in the report metadata.
    """
    taxonomy = corpus.taxonomy
    buckets: tuple[list[int], list[int]] = ([], [])
    for pid in corpus.papers_in(field=focal_field, window=focal_window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(corpus, cited, graph.multiplicity)
        fraction = counts.get(target_field, 0.0) / len(cited)
        buckets[0 if fraction > threshold else 1].append(pid)
    classified = len(buckets[0]) + len(buckets[1])
    if classified == 0:
        raise AnalysisError("no focal papers with resolved references in the window")

    acps: list[float | None] = []
    for members in buckets:
        acps.append(acp(graph, corpus, target_field, members) if members else None)
    diff_pct = None
    if acps[0] is not None and acps[1] is not None and acps[1] > 0:
        diff_pct = (acps[0] - acps[1]) / acps[1] * 100.0

    report = MetricReport(
        name="acp-buckets",
        columns=("focal", "target", "bucket", "size_pct", "acp"),
        metadata=base_metadata(
            "acp-buckets",
            focal=taxonomy.abbr(focal_field),
            target=taxonomy.abbr(target_field),
            window=window_label(focal_window),
            threshold=threshold,
            classified_papers=classified,
            multiplicity=graph.multiplicity,
            citing_scope="all-years",
            acp_diff_pct=diff_pct,
        ),
    )
    for label, members, value in zip(("bucket-1", "bucket-2"), buckets, acps):
        report.add_row(
            taxonomy.abbr(focal_field),
            taxonomy.abbr(target_field),
            label,
            100.0 * len(members) / classified,
            value,
        )
    return report


def matrix_report(matrix: np.ndarray, taxonomy: FieldTaxonomy, window: TimeWindow | None = None) -> MetricReport:
    """Citation-fraction matrix as CSV-able rows with abbreviation headers."""
    abbrs = [taxonomy.abbr(i) for i in taxonomy.indices]
    report = MetricReport(
        name="citation-fractions",
        columns=tuple(["field"] + abbrs),
        metadata=base_metadata("citation-fractions", window=window_label(window)),
    )
    for i in taxonomy.indices:
        row = [None if isnan(matrix[i, j]) else float(matrix[i, j]) for j in taxonomy.indices]
        report.add_row(abbrs[i], *row)
    return report


def pearson_report(
    matrix: np.ndarray,
    taxonomy: FieldTaxonomy,
    include_diagonal: bool = True,
    window: TimeWindow | None = None,
) -> MetricReport:
    """Overall and built-in per-group reciprocity correlations; undefined groups
    get empty cells."""
    report = MetricReport(
        name="reciprocity",
        columns=("group", "pearson_r", "points"),
        metadata=base_metadata(
            "reciprocity",
            diagonal="included" if include_diagonal else "excluded",
            window=window_label(window),
        ),
    )
    candidates: list[tuple[str, list[int] | None]] = [("all", None)]
    for name, abbrs in _DEFAULT_GROUPS:
        members = [taxonomy.get(a) for a in abbrs]
        if None not in members:
            candidates.append((name, members))
    for name, members in candidates:
        try:
            r, points = reciprocity_pearson(matrix, members, include_diagonal)
        except AnalysisError:
            report.add_row(name, None, 0)
            continue
        report.add_row(name, r, points)
    return report
