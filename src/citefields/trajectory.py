"""Field life-trajectory indicators: per-year cross/same citation ratios,
co-tagging growth, evidence series, and heuristic three-phase labeling.

Two pooled ratio series (sum over the year's papers / sum) drive the
phase labeling, both indexed by the citing paper's publication year:

* tau: cross-field over same-field references emitted by a field's papers;
  a reference is same-field when the cited paper shares a field tag with
  the citing paper.
* zeta: cross-field over same-field citations received by a field's papers;
  here same-field means the citing paper carries the focal field tag.

Phase labeling fits two-segment piecewise-constant models to each series:
a level drop in tau ends the growing phase, a later level rise in zeta
starts the interdisciplinary phase, and matured spans the gap. The split
is selected on log values with a scale-relative floor, which keeps it
robust to single-year spikes and invariant to uniform positive scaling.
The change-point year is the last year of the preceding regime. This is a
heuristic; the fitted segment means (raw scale) ride along.
"""

from __future__ import annotations

from collections import Counter
from math import fsum, log
from typing import Iterable, NamedTuple

from .errors import AnalysisError
from .graph import CitationGraph
from .records import Corpus, PaperTable, TimeWindow
from .report import MetricReport, base_metadata
from .slotted import Slotted
from .taxonomy import FieldTaxonomy

GROWING = "growing"
MATURED = "matured"
INTERDISCIPLINARY = "interdisciplinary"

# Fraction of the flat fit's squared error (log scale) a split must remove
# to count as a real level change.
MIN_GAIN_FRACTION = 0.5


class Phase(NamedTuple):
    label: str
    start: int
    end: int
    segment_mean: float


class PhaseDetection(Slotted):
    """The ``phases`` in year order, ``tau_change_year`` and ``zeta_change_year``
    (None where there is no change) and ``diagnostics``, empty by default."""

    __slots__ = ("phases", "tau_change_year", "zeta_change_year", "diagnostics")
    _defaults = {"diagnostics": list}


class FieldTrajectory(Slotted):
    """The ``tau`` and ``zeta`` series of the ``field`` index over
    ``years``, tuples by year, None where a year has no same-field count."""

    __slots__ = ("field", "years", "tau", "zeta")


def _reference_split(
    graph: CitationGraph, fields_of: dict[int, frozenset[int]], pid: int,
) -> tuple[int, int]:
    """(cross, same) counts of a paper's resolved references, with
    ``fields_of`` a table's ``fields``: a reference is same-field when the
    cited paper shares a field tag with the citing paper."""
    fields = fields_of[pid]
    refs = graph.out_edges.get(pid, ())
    same = sum(1 for rid in refs if fields_of[rid] & fields)
    return len(refs) - same, same


def _cotag_fold(
    batches: Iterable[tuple], taxonomy: FieldTaxonomy,
) -> tuple[Counter, FieldTaxonomy]:
    """The papers of ``batches`` of year and field-set columns, counted by
    (year, field set), with ``taxonomy``: what ``cotag_report`` reads of a
    corpus, in one pass that keeps no paper."""
    tally: Counter = Counter()
    for years, fields in batches:
        tally.update(zip(years, fields))
    return tally, taxonomy


# The columns of a parse it reads (see corpusio.parse_corpus).
_cotag_fold.columns = ("year", "fields")


def cotag_report(
    corpus: Corpus,
    field_a: int,
    field_b: int,
    windows: list[TimeWindow],
) -> MetricReport:
    """Per-window co-tagging volume, P(tagged B | multi-tagged and tagged A)
    and the window-over-window percentage change of the volume.

    The probability is None for a window with no multi-tagged A papers.
    """
    tally, taxonomy = corpus._read(_cotag_fold)
    return _cotag_rows(tally, taxonomy, field_a, field_b, windows)


def _cotag_rows(
    tally: Counter,
    taxonomy: FieldTaxonomy,
    field_a: int,
    field_b: int,
    windows: list[TimeWindow],
) -> MetricReport:
    """``cotag_report`` of the papers ``_cotag_fold`` counted in ``tally``."""
    report = MetricReport(
        name="cotag",
        columns=(
            "window_start", "window_end", "field_a", "field_b",
            "cotag_count", "multi_tagged_a", "probability", "count_change_pct",
        ),
        metadata=base_metadata(
            "cotag", field_a=taxonomy.abbr(field_a), field_b=taxonomy.abbr(field_b)
        ),
    )
    # Multi-tagged A papers by year and field set; counts are ints, so any
    # order of adding them gives the same totals.
    multi = [(year, fields, papers) for (year, fields), papers in tally.items()
             if len(fields) > 1 and field_a in fields]
    prev: int | None = None
    for window in windows:
        base = count = 0
        for year, fields, papers in multi:
            if window.contains(year):
                base += papers
                if field_b in fields:
                    count += papers
        change = (count - prev) / prev * 100.0 if prev else None
        report.add_row(
            window.start, window.end, taxonomy.abbr(field_a), taxonomy.abbr(field_b),
            count, base, count / base if base else None, change,
        )
        prev = count
    return report


def evidence_series(
    graph: CitationGraph,
    corpus: Corpus | PaperTable,
    years: list[int] | None = None,
) -> MetricReport:
    """Per-year corpus-wide indicators of cross-field activity.

    Columns: fraction of multi-field papers; mean distinct fields among a
    paper's resolved references (papers with at least one); pooled
    cross/same reference ratio over all papers; mean team size; mean
    breadth of the authors' cumulative publication fields. An author's
    expertise at year y is the set of fields of their corpus papers
    published up to and including y: one pass over the years in ascending
    order folds each year's authors in, then scores the year's papers, in
    O(papers x authors).
    """
    papers = corpus.table
    fields_of, authors_of = papers.fields, papers.authors
    by_year: dict[int, list[int]] = {}
    for pid, y in papers.year.items():
        by_year.setdefault(y, []).append(pid)
    years = years if years is not None else sorted(by_year)
    wanted = set(years)
    rows: dict[int, tuple] = {}
    known: dict[str, frozenset[int]] = {}  # author key -> fields so far
    nothing: frozenset[int] = frozenset()
    for y in sorted(by_year):
        ids = by_year[y]
        for pid in ids:
            fields = fields_of[pid]
            for key in authors_of[pid]:
                seen = known.get(key, nothing)
                if not fields <= seen:
                    known[key] = seen | fields
        if y not in wanted:
            continue
        multi = 0
        fields_cited: list[int] = []
        cross = same = 0
        team_sizes: list[int] = []
        breadths: list[int] = []
        for pid in ids:
            authors = authors_of[pid]
            if len(fields_of[pid]) > 1:
                multi += 1
            team_sizes.append(len(authors))
            refs = graph.out_edges.get(pid, ())
            cited_fields: set[int] = set()
            for rid in refs:
                cited_fields |= fields_of[rid]
            if refs:
                fields_cited.append(len(cited_fields))
            pcross, psame = _reference_split(graph, fields_of, pid)
            cross += pcross
            same += psame
            team_fields: set[int] = set()
            for key in authors:
                team_fields |= known[key]
            if authors:
                breadths.append(len(team_fields))
        rows[y] = (
            len(ids),
            multi / len(ids),
            fsum(fields_cited) / len(fields_cited) if fields_cited else None,
            cross / same if same else None,
            fsum(team_sizes) / len(team_sizes),
            fsum(breadths) / len(breadths) if breadths else None,
        )

    report = MetricReport(
        name="evidence",
        columns=(
            "year", "papers", "multi_field_fraction", "mean_fields_cited",
            "tau", "mean_team_size", "mean_author_field_breadth",
        ),
        metadata=base_metadata("evidence"),
    )
    for y in years:
        report.add_row(y, *rows.get(y, (0, None, None, None, None, None)))
    return report


def field_trajectory(
    graph: CitationGraph,
    corpus: Corpus | PaperTable,
    focal: int,
    years: list[int] | None = None,
) -> FieldTrajectory:
    """The tau/zeta series of one field, None in a year without same-field counts.

    Default year span: from the field's first paper to the corpus's last
    year (incoming citations keep arriving after the field's last paper).
    A field without papers has no trajectory, whatever the span.
    """
    papers = corpus.table
    year_of, fields_of = papers.year, papers.fields
    members = papers.papers_in(field=focal)
    if not members:
        raise AnalysisError("field has no papers")
    if years is None:
        first = min(year_of[pid] for pid in members)
        years = list(range(first, max(year_of.values()) + 1))
    # [cross, same] per year: tau counts the references the field's papers
    # emit in their own year, zeta the citations they receive by citing year.
    tau = {y: [0, 0] for y in years}
    zeta = {y: [0, 0] for y in years}
    for pid in members:
        counts = tau.get(year_of[pid])
        if counts is not None:
            pcross, psame = _reference_split(graph, fields_of, pid)
            counts[0] += pcross
            counts[1] += psame
        for q in graph.in_edges.get(pid, ()):
            counts = zeta.get(year_of[q])
            if counts is not None:
                counts[1 if focal in fields_of[q] else 0] += 1
    return FieldTrajectory(
        field=focal,
        years=tuple(years),
        tau=tuple(cross / same if same else None for cross, same in map(tau.get, years)),
        zeta=tuple(cross / same if same else None for cross, same in map(zeta.get, years)),
    )


def _two_segment_split(values: list[float], direction: str) -> int | None:
    """Best two-segment piecewise-constant least-squares fit with a
    directional level change.

    Returns the length of the first segment, or None when no split with the
    required direction removes at least ``MIN_GAIN_FRACTION`` of the flat
    fit's squared error. Both segments must be non-empty; SSE ties go to
    the earliest split.
    """
    n = len(values)
    if n < 2:
        return None
    prefix = [0.0]
    prefix_sq = [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
        prefix_sq.append(prefix_sq[-1] + v * v)

    def sse(lo: int, hi: int) -> float:  # half-open [lo, hi)
        m = hi - lo
        s = prefix[hi] - prefix[lo]
        sq = prefix_sq[hi] - prefix_sq[lo]
        return sq - s * s / m

    flat = sse(0, n)
    best: tuple[float, int] | None = None
    for k in range(1, n):
        left_mean = prefix[k] / k
        right_mean = (prefix[n] - prefix[k]) / (n - k)
        if direction == "drop" and not left_mean > right_mean:
            continue
        if direction == "rise" and not left_mean < right_mean:
            continue
        total = sse(0, k) + sse(k, n)
        if best is None or total < best[0]:
            best = (total, k)
    if best is None:
        return None
    if flat <= 0.0 or (flat - best[0]) < MIN_GAIN_FRACTION * flat:
        return None
    return best[1]


def _ratio_level_split(
    points: list[tuple[int, float]], direction: str
) -> tuple[int, float, float] | None:
    """Two-segment fit for non-negative ratio series, selected on log scale.

    Ratios vary multiplicatively and spike when yearly counts are small, so
    the split is chosen on log(value) with zeros floored at max/1000 (the
    floor scales with the series, keeping the selection invariant to uniform
    positive scaling). Returns (year of the last point in the first
    segment, left mean, right mean), the means on the raw scale.
    """
    if len(points) < 2:
        return None
    top = max(v for _, v in points)
    if top <= 0.0:
        return None  # constant-zero series has no level change
    floor = top * 1e-3
    k = _two_segment_split([log(max(v, floor)) for _, v in points], direction)
    if k is None:
        return None
    left = [v for _, v in points[:k]]
    right = [v for _, v in points[k:]]
    return points[k - 1][0], fsum(left) / len(left), fsum(right) / len(right)


def detect_phases(trajectory: FieldTrajectory, min_years: int = 10) -> PhaseDetection:
    """Label the growing / matured / interdisciplinary spans of a trajectory.

    Growing runs from the series start through tau's drop change-point;
    the interdisciplinary phase starts after zeta's rise change-point,
    which must come after tau's (otherwise it is not emitted, with a
    diagnostic); matured covers whatever remains. Flat series produce a
    single matured phase. Uniform positive scaling of either series leaves
    the labeling unchanged. At least ``min_years`` years of the trajectory
    need a defined tau.
    """
    tau_points = [
        (y, v) for y, v in zip(trajectory.years, trajectory.tau) if v is not None
    ]
    if len(tau_points) < min_years:
        raise AnalysisError(
            f"need at least {min_years} years with a defined reference "
            f"ratio, got {len(tau_points)}"
        )
    zeta_points = [
        (y, v) for y, v in zip(trajectory.years, trajectory.zeta) if v is not None
    ]
    span_start = trajectory.years[0]
    span_end = trajectory.years[-1]
    diagnostics: list[str] = []
    phases: list[Phase] = []

    tau_fit = _ratio_level_split(tau_points, "drop")
    zeta_fit = _ratio_level_split(zeta_points, "rise")

    tau_cp = zeta_cp = None
    if tau_fit is None:
        diagnostics.append("no level drop in the reference ratio; whole span labeled matured")
        tau_values = [v for _, v in tau_points]
        phases.append(Phase(MATURED, span_start, span_end, fsum(tau_values) / len(tau_values)))
        return PhaseDetection(phases, None, None, diagnostics)

    tau_cp, tau_high, tau_low = tau_fit
    phases.append(Phase(GROWING, span_start, tau_cp, tau_high))
    if zeta_fit is not None:
        zeta_cp, _, zeta_high = zeta_fit
        if zeta_cp > tau_cp:
            phases.append(Phase(MATURED, tau_cp + 1, zeta_cp, tau_low))
            phases.append(Phase(INTERDISCIPLINARY, zeta_cp + 1, span_end, zeta_high))
            return PhaseDetection(phases, tau_cp, zeta_cp, diagnostics)
        diagnostics.append(
            "incoming-citation rise precedes the reference-ratio drop; "
            "no interdisciplinary phase emitted"
        )
        zeta_cp = None
    phases.append(Phase(MATURED, tau_cp + 1, span_end, tau_low))
    return PhaseDetection(phases, tau_cp, zeta_cp, diagnostics)


def trajectory_report(trajectory: FieldTrajectory, taxonomy) -> MetricReport:
    report = MetricReport(
        name="trajectory",
        columns=("field", "year", "tau", "zeta"),
        metadata=base_metadata("trajectory", field=taxonomy.abbr(trajectory.field)),
    )
    for y, t, z in zip(trajectory.years, trajectory.tau, trajectory.zeta):
        report.add_row(taxonomy.abbr(trajectory.field), y, t, z)
    return report


def phases_report(
    trajectory: FieldTrajectory, detection: PhaseDetection, taxonomy
) -> MetricReport:
    report = MetricReport(
        name="phases",
        columns=("field", "phase", "start", "end", "segment_mean"),
        metadata=base_metadata(
            "phases",
            field=taxonomy.abbr(trajectory.field),
            tau_change_year=detection.tau_change_year,
            zeta_change_year=detection.zeta_change_year,
            diagnostics="; ".join(detection.diagnostics),
        ),
    )
    for phase in detection.phases:
        report.add_row(
            taxonomy.abbr(trajectory.field), phase.label,
            phase.start, phase.end, phase.segment_mean,
        )
    return report
