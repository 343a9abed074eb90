"""Field-to-field citation fractions, reciprocity correlation, and the
return-citation bucket test.

The citation-fraction matrix row-normalizes field-level reference flow
into rows of Python floats; ``_row_total`` adds each row in the order of
numpy's pairwise ``sum(axis=1)``, so every report keeps its bytes.
Reciprocity is the Pearson correlation over {(M[i][j], M[j][i])} for all
ordered field pairs, diagonal included by default (self-pairs sit on
y = x and inflate it). ``pearson_report`` adds the correlation within each
built-in group of related fields.

The bucket test asks whether papers that lean heavily on a target field
(more than half of their references) earn more return citations from that
field than papers that do not.
"""

from __future__ import annotations

from math import fsum, isnan, nan, sqrt
from typing import Iterable, Sequence

from .errors import AnalysisError
from .graph import FULL_COUNT, check_multiplicity, field_flow, field_ref_counts
from .records import Corpus, PaperTable, TimeWindow
from .report import MetricReport, base_metadata, window_label
from .taxonomy import FieldTaxonomy


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


def _row_total(row: Sequence[float]) -> float:
    """Sum of ``row`` added in the order of numpy's pairwise ``sum(axis=1)``.

    Fewer than 8 values are added in order. Up to 128 values go into 8
    interleaved accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    and the tail past the last multiple of 8 is added in order. A longer row
    is split in half, rounded down to a multiple of 8, and each half summed
    the same way. Float addition is not associative, so any other order could
    move a fraction, and a report, by the last bit.
    """
    n = len(row)
    if n < 8:
        total = 0.0
        for x in row:
            total += x
        return total
    if n <= 128:
        cut = n - n % 8
        r = list(row[:8])
        for start in range(8, cut, 8):
            for k in range(8):
                r[k] += row[start + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in row[cut:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _row_total(row[:half]) + _row_total(row[half:])


def citation_fraction_matrix(
    corpus: Corpus | PaperTable,
    window: TimeWindow | None = None,
    multiplicity: str = FULL_COUNT,
) -> list[list[float]]:
    """M[i][j] = fraction of field i's resolved references that point to field j.

    One row per taxonomy field. Rows with no outflow are all NaN. With a
    window, only references emitted by papers published inside it are
    counted.
    """
    matrix = []
    for row in field_flow(corpus, window, multiplicity):
        total = _row_total(row)
        matrix.append([x / total for x in row] if total > 0 else [nan] * len(row))
    return matrix


def reciprocity_pearson(
    matrix: Sequence[Sequence[float]],
    members: Iterable[int] | None = None,
    include_diagonal: bool = True,
) -> tuple[float, int]:
    """Correlation between forward and return citation fractions.

    Point set: (M[i][j], M[j][i]) for every ordered pair of the member
    field indices (or of all fields); pairs with a missing (NaN) coordinate
    are dropped. ``matrix`` is read as ``matrix[i][j]``, so a list of rows
    and a 2-D array both serve. Returns (r, points used) with r the
    centered-moment Pearson correlation; fewer than two points or a zero
    variance raise ``AnalysisError``.
    """
    indices = sorted(members) if members is not None else range(len(matrix))
    xs: list[float] = []
    ys: list[float] = []
    for i in indices:
        for j in indices:
            if i == j and not include_diagonal:
                continue
            x = matrix[i][j]
            y = matrix[j][i]
            if isnan(x) or isnan(y):
                continue
            xs.append(float(x))
            ys.append(float(y))
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
    return sxy / sqrt(sxx * syy), n


def acp_bucket_test(
    corpus: Corpus | PaperTable,
    focal_field: int,
    target_field: int,
    focal_window: TimeWindow,
    threshold: float = 0.5,
    multiplicity: str = FULL_COUNT,
) -> MetricReport:
    """Split focal papers by how heavily they reference the target field, then
    compare the target field's return citations into each bucket.

    Bucket 1: papers with a resolved reference whose fraction into the
    target field exceeds the threshold; bucket 2: the rest of those. Return
    citations are counted corpus-wide and normalized per bucket paper; the
    relative ACP difference lands in the report metadata.
    """
    check_multiplicity(multiplicity)
    papers = corpus.table.require("references", "in_edges")
    taxonomy = papers.taxonomy
    buckets: tuple[list[int], list[int]] = ([], [])
    for r in papers.papers_in(field=focal_field, window=focal_window):
        cited = papers.references[r]
        if not cited:
            continue
        counts = field_ref_counts(papers, cited, multiplicity)
        fraction = counts.get(target_field, 0.0) / len(cited)
        buckets[0 if fraction > threshold else 1].append(r)
    classified = len(buckets[0]) + len(buckets[1])
    if classified == 0:
        raise AnalysisError("no focal papers with resolved references in the window")

    # ACP: citations from target-field papers into a bucket, per bucket paper.
    acps: list[float | None] = []
    for members in buckets:
        returns = sum(
            target_field in papers.fields[q]
            for r in members
            for q in papers.in_edges[r]
        )
        acps.append(returns / len(members) if members else None)
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
            multiplicity=multiplicity,
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


def matrix_report(matrix: Sequence[Sequence[float]], taxonomy: FieldTaxonomy, window: TimeWindow | None = None) -> MetricReport:
    """Citation-fraction matrix as CSV-able rows with abbreviation headers."""
    abbrs = [taxonomy.abbr(i) for i in taxonomy.indices]
    report = MetricReport(
        name="citation-fractions",
        columns=tuple(["field"] + abbrs),
        metadata=base_metadata("citation-fractions", window=window_label(window)),
    )
    for i in taxonomy.indices:
        row = [None if isnan(matrix[i][j]) else float(matrix[i][j]) for j in taxonomy.indices]
        report.add_row(abbrs[i], *row)
    return report


def pearson_report(
    matrix: Sequence[Sequence[float]],
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
