"""Field life-trajectory indicators: per-year cross/same citation ratios,
co-tagging growth, evidence series, and heuristic three-phase labeling.

Two ratio series drive the phase labeling:

* tau: cross-field over same-field references emitted by a field's papers,
  indexed by the citing paper's publication year. A reference is same-field
  when the cited paper shares at least one field tag with the citing paper.
* zeta: cross-field over same-field citations received by a field's papers,
  indexed by the citing paper's publication year (citations from outside
  arrive over time). Here same-field means the citing paper carries the
  focal field tag.

Both are pooled ratios (sum over the year's papers / sum), which avoids
division by zero on individual papers.

Phase labeling fits two-segment piecewise-constant models to each series:
a level drop in tau ends the growing phase; a later level rise in zeta
starts the interdisciplinary phase; matured spans the gap. Because the
series are ratios (heavy-tailed when yearly counts are small), the split
is selected on log-transformed values with a scale-relative floor; this
keeps the fit robust to single-year spikes and makes the change-points
invariant to uniform positive scaling. The change-point year is the last
year of the preceding regime. This is a heuristic operationalization; the
fitted segment means (raw scale) ride along so callers can judge the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, log

from .errors import AnalysisError
from .graph import CitationGraph
from .records import Corpus, TimeWindow, author_key
from .report import MetricReport, base_metadata

GROWING = "growing"
MATURED = "matured"
INTERDISCIPLINARY = "interdisciplinary"

# Fraction of the flat fit's squared error (log scale) a split must remove
# to count as a real level change.
MIN_GAIN_FRACTION = 0.5


@dataclass(frozen=True)
class Phase:
    label: str
    start: int
    end: int
    segment_mean: float


@dataclass
class PhaseDetection:
    phases: list[Phase]
    tau_change_year: int | None
    zeta_change_year: int | None
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class FieldTrajectory:
    field: int
    years: tuple[int, ...]
    tau: tuple[float | None, ...]
    zeta: tuple[float | None, ...]


def _reference_split(graph: CitationGraph, corpus: Corpus, pid: int) -> tuple[int, int]:
    """(cross, same) counts of a paper's resolved references.

    A reference is same-field when the cited paper shares at least one
    field tag with the citing paper.
    """
    fields = corpus[pid].fields
    refs = graph.out_edges.get(pid, ())
    same = sum(1 for rid in refs if corpus[rid].fields & fields)
    return len(refs) - same, same


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
    taxonomy = corpus.taxonomy
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
    prev: int | None = None
    for window in windows:
        tags = (corpus[pid].fields for pid in corpus.papers_in(field=field_a, window=window))
        multi = [fields for fields in tags if len(fields) > 1]
        base = len(multi)
        count = sum(field_b in fields for fields in multi)
        change = (count - prev) / prev * 100.0 if prev else None
        report.add_row(
            window.start, window.end, taxonomy.abbr(field_a), taxonomy.abbr(field_b),
            count, base, count / base if base else None, change,
        )
        prev = count
    return report


def evidence_series(
    graph: CitationGraph,
    corpus: Corpus,
    years: list[int] | None = None,
) -> MetricReport:
    """Per-year corpus-wide indicators of cross-field activity.

    Columns: fraction of multi-field papers; mean distinct fields among a
    paper's resolved references (papers with at least one); pooled
    cross/same reference ratio over all papers; mean team size; mean
    breadth of the authors' cumulative publication fields. An author's
    expertise at year y is the set of fields of their corpus papers
    published up to and including y.

    Cost: O(N) in N = papers x authors. One pass over the corpus years in
    order folds each author's papers into the cumulative field union at
    every year they published in; a paper looks up its authors' unions at
    its own year.
    """
    years = years if years is not None else corpus.years()
    # expertise[author][y] for each year y the author published in. Saturated
    # unions are shared, not copied, so memory stays near one entry per
    # author-year.
    expertise: dict[str, dict[int, frozenset[int]]] = {}
    known: dict[str, frozenset[int]] = {}
    for y in corpus.years():
        published: set[str] = set()
        for pid in corpus.by_year[y]:
            rec = corpus[pid]
            for author in rec.authors:
                key = author_key(author)
                seen = known.get(key, frozenset())
                if not rec.fields <= seen:
                    known[key] = seen | rec.fields
                published.add(key)
        for key in published:
            expertise.setdefault(key, {})[y] = known[key]

    report = MetricReport(
        name="evidence",
        columns=(
            "year", "papers", "multi_field_fraction", "mean_fields_cited",
            "tau", "mean_team_size", "mean_author_field_breadth",
        ),
        metadata=base_metadata("evidence"),
    )
    for y in years:
        ids = corpus.by_year.get(y, ())
        if not ids:
            report.add_row(y, 0, None, None, None, None, None)
            continue
        multi = 0
        fields_cited: list[int] = []
        cross = same = 0
        team_sizes: list[int] = []
        breadths: list[int] = []
        for pid in ids:
            rec = corpus[pid]
            if len(rec.fields) > 1:
                multi += 1
            team_sizes.append(len(rec.authors))
            refs = graph.out_edges.get(pid, ())
            cited_fields: set[int] = set()
            for rid in refs:
                cited_fields |= corpus[rid].fields
            if refs:
                fields_cited.append(len(cited_fields))
            pcross, psame = _reference_split(graph, corpus, pid)
            cross += pcross
            same += psame
            team_fields: set[int] = set()
            for author in rec.authors:
                team_fields |= expertise[author_key(author)][y]
            if rec.authors:
                breadths.append(len(team_fields))
        report.add_row(
            y,
            len(ids),
            multi / len(ids),
            fsum(fields_cited) / len(fields_cited) if fields_cited else None,
            cross / same if same else None,
            fsum(team_sizes) / len(team_sizes),
            fsum(breadths) / len(breadths) if breadths else None,
        )
    return report


def field_trajectory(
    graph: CitationGraph,
    corpus: Corpus,
    focal: int,
    years: list[int] | None = None,
) -> FieldTrajectory:
    """The tau/zeta series of one field, None in a year without same-field counts.

    Default year span: from the field's first paper to the corpus's last
    year (incoming citations keep arriving after the field's last paper).
    A field without papers has no trajectory, whatever the span.
    """
    members = corpus.by_field.get(focal)
    if not members:
        raise AnalysisError("field has no papers")
    if years is None:
        first = min(corpus[pid].year for pid in members)
        years = list(range(first, corpus.years()[-1] + 1))
    # [cross, same] per year: tau counts the references the field's papers
    # emit in their own year, zeta the citations they receive by citing year.
    tau = {y: [0, 0] for y in years}
    zeta = {y: [0, 0] for y in years}
    for pid in members:
        counts = tau.get(corpus[pid].year)
        if counts is not None:
            pcross, psame = _reference_split(graph, corpus, pid)
            counts[0] += pcross
            counts[1] += psame
        for q in graph.in_edges.get(pid, ()):
            citer = corpus[q]
            counts = zeta.get(citer.year)
            if counts is not None:
                counts[1 if focal in citer.fields else 0] += 1
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
