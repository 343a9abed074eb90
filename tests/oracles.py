"""Independent reference implementations used to cross-check the library.

Everything here recomputes results directly from raw PaperRecord data with
straight-line code (quadratic scans, raw-moment formulas), deliberately
avoiding the library's graph/index structures so a bug cannot cancel out
on both sides of a comparison. numpy serves here as a reference only; the
library does not load it for any analysis.
"""

from __future__ import annotations

import bisect
import io
import math
from functools import cache
from itertools import chain
from math import ceil, fsum, log
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from citefields import (
    DEFAULT_FIELDS, Corpus, FieldTaxonomy, FieldTrajectory, GeneratorSpec, MetricReport,
    PaperRecord, TimeWindow, detect_phases, matrix_report, pearson_report, phases_report,
    trajectory_report,
)
from citefields.corpusio import COMMENT_PREFIX, ERROR, WARNING, Diagnostic, ParseReport
from citefields.diversity import CORPUS_GLOBAL, KDI, RDI, WINDOW_LOCAL
from citefields.errors import AnalysisError, ParseError
from citefields.graph import FRACTIONAL, FULL_COUNT, CitationGraph
from citefields.impact import DEFAULT_HORIZON, TOP_SHARE, bucket_assignment
from citefields.reciprocity import _row_total
from citefields.records import YEAR_RANGE, author_key
from citefields.report import base_metadata, window_label
from citefields.slotted import Slotted


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


def papers_in(corpus: Corpus, field: int | None = None,
              window: TimeWindow | None = None) -> list[int]:
    """Ascending ids of the papers in ``field`` and ``window`` (each
    optional), by a scan of ``corpus``'s records."""
    return [pid for pid, rec in corpus.records.items()
            if (field is None or field in rec.fields)
            and (window is None or window.contains(rec.year))]


def ids_by_year(corpus: Corpus) -> dict[int, list[int]]:
    """Ascending ids of ``corpus``'s papers by publication year, the years
    ascending, from its records."""
    by_year: dict[int, list[int]] = {}
    for pid, rec in corpus.records.items():
        by_year.setdefault(rec.year, []).append(pid)
    return dict(sorted(by_year.items()))


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


# -- the generator's propensity code as written with numpy ---------------
# Copied verbatim from ``citefields.synth`` before it dropped numpy; the
# generator must draw from the same float64 values, bit for bit.

def propensity_identity_numpy(k: int) -> np.ndarray:
    return np.eye(k)


def propensity_uniform_numpy(k: int) -> np.ndarray:
    return np.full((k, k), 1.0 / k)


def propensity_mixed_numpy(k: int, self_weight: float = 0.6) -> np.ndarray:
    """self_weight on the diagonal, the rest spread evenly off-diagonal."""
    if k == 1:
        return np.eye(1)
    m = np.full((k, k), (1.0 - self_weight) / (k - 1))
    np.fill_diagonal(m, self_weight)
    return m


def propensity_matrix_numpy(spec) -> np.ndarray:
    """``GeneratorSpec.propensity_matrix``."""
    if spec.propensity is None:
        return propensity_mixed_numpy(spec.field_count)
    return np.asarray(spec.propensity, dtype=np.float64)


def validate_propensity_numpy(spec) -> None:
    """The propensity checks of ``GeneratorSpec.validate``."""
    matrix = propensity_matrix_numpy(spec)
    if matrix.shape != (spec.field_count, spec.field_count):
        raise AnalysisError("propensity matrix shape does not match field_count")
    if (matrix < 0).any() or not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
        raise AnalysisError("propensity rows must be non-negative and sum to 1")


def sampling_matrix_numpy(spec) -> np.ndarray:
    """The matrix the generator draws reference fields from: the planted
    lifecycle's renormalization of ``propensity_matrix_numpy(spec)``."""
    k = spec.field_count
    lc = spec.lifecycle
    matrix = propensity_matrix_numpy(spec)
    if lc is not None:
        # With a planted lifecycle the inbound redirect is the only channel
        # into the focal field: zero the focal column of every other row so
        # the planted rise is not washed out by baseline propensity.
        matrix = matrix.copy()
        for i in range(k):
            if i == lc.focal_field:
                continue
            matrix[i, lc.focal_field] = 0.0
            total = matrix[i].sum()
            if total <= 0.0:
                matrix[i] = 0.0
                matrix[i, i] = 1.0
            else:
                matrix[i] /= total
    return matrix


# -- the generator as written before its loop was flattened ---------------
# Copied verbatim from ``citefields.synth``: its sampling helpers, keyword
# pools, sampling matrix and ``generate_chunks``. ``generate`` must write the
# same bytes and draw ``random()`` the same number of times in the same
# order. Tests patch this module's ``Random`` to count or fix the draws.

RNG_PIN = "python-random-mt19937-random()"
GROWING_CROSS_FRACTION = 0.75
SETTLED_SELF_FRACTION = 0.85
INBOUND_LOW = 0.01
INBOUND_HIGH = 0.6


def _rand_int(rng: Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] inclusive."""
    if lo == hi:
        return lo
    return min(lo + int(rng.random() * (hi - lo + 1)), hi)


def _weighted_index(rng: Random, cumulative: list[float]) -> int:
    return bisect.bisect_right(cumulative, rng.random() * cumulative[-1])


def _cumulative(weights) -> list[float]:
    out = []
    total = 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


def _sample_distinct(rng: Random, pool: list[str], count: int) -> list[str]:
    """Distinct draws without replacement, deterministic, order-of-draw."""
    chosen: list[str] = []
    taken: set[int] = set()
    count = min(count, len(pool))
    while len(chosen) < count:
        i = _rand_int(rng, 0, len(pool) - 1)
        if i not in taken:
            taken.add(i)
            chosen.append(pool[i])
    return chosen


def _keyword_pools(spec: GeneratorSpec, abbrs: list[str]) -> list[list[str]]:
    shared_n = int(round(spec.keyword_pool_size * spec.keyword_overlap_fraction))
    own_n = spec.keyword_pool_size - shared_n
    shared = [f"kw shared {i}" for i in range(shared_n)]
    return [
        [f"kw {abbr.casefold()} {i}" for i in range(own_n)] + shared
        for abbr in abbrs
    ]


def _sampling_matrix(spec: GeneratorSpec) -> list[list[float]]:
    """Propensity rows to draw from. A planted lifecycle's inbound redirect is
    the only channel into the focal field: every other row's focal entry is
    zeroed and the row renormalized, so the baseline does not wash out the rise."""
    matrix = spec.propensity_matrix()
    lc = spec.lifecycle
    if lc is not None:
        for i, row in enumerate(matrix):
            if i == lc.focal_field:
                continue
            row[lc.focal_field] = 0.0
            total = _row_total(row)
            if total <= 0.0:
                matrix[i] = [1.0 if j == i else 0.0 for j in range(len(row))]
            else:
                matrix[i] = [x / total for x in row]
    return matrix


def generate_chunks(spec: GeneratorSpec) -> Iterator[str]:
    """``generate(spec)`` in pieces: the ``%%`` header line, then the records
    of each year, so a writer holds one year of text at a time.

    The spec is validated before the first piece is returned.
    """
    spec.validate()
    rng = Random(spec.seed)
    k = spec.field_count
    abbrs = [DEFAULT_FIELDS[i][1] for i in range(k)]
    names = [DEFAULT_FIELDS[i][0] for i in range(k)]
    lc = spec.lifecycle
    base_rows = [_cumulative(row) for row in _sampling_matrix(spec)]
    pools = _keyword_pools(spec, abbrs)
    authors = [f"Author {i:03d}" for i in range(spec.author_pool_size)]
    venues = [f"VENUE-{i}" for i in range(spec.venue_count)]

    yield (
        f"%% synthetic corpus: rng={RNG_PIN} seed={spec.seed} "
        f"fields={k} years={spec.start_year}+{spec.years_span}\n"
    )
    by_field_prior: list[list[int]] = [[] for _ in range(k)]  # ids of papers from closed years
    all_prior: list[int] = []
    next_id = 1

    def lifecycle_row(year: int) -> list[float]:
        if year <= lc.tau_drop_year:
            self_w = 1.0 - GROWING_CROSS_FRACTION
        else:
            self_w = SETTLED_SELF_FRACTION
        row = [(1.0 - self_w) / (k - 1)] * k if k > 1 else [1.0]
        row[lc.focal_field] = self_w if k > 1 else 1.0
        return _cumulative(row)

    for year in range(spec.start_year, spec.start_year + spec.years_span):
        year_records: list[tuple[int, int]] = []  # (id, field) per tag
        year_pids: list[int] = []
        lines: list[str] = []
        n_papers = _rand_int(rng, *spec.papers_per_year)
        for _ in range(n_papers):
            pid = next_id
            next_id += 1
            primary = _rand_int(rng, 0, k - 1)
            fields = [primary]
            if k > 1 and rng.random() < spec.multi_tag_probability:
                extra = _rand_int(rng, 0, k - 2)
                if extra >= primary:
                    extra += 1
                fields.append(extra)

            n_refs = _rand_int(rng, *spec.references)
            refs: list[int] = []
            seen: set[int] = set()
            if all_prior:
                focal_paper = lc is not None and primary == lc.focal_field
                cumrow = lifecycle_row(year) if focal_paper else base_rows[primary]
                inbound = None
                if lc is not None and not focal_paper:
                    inbound = INBOUND_LOW if year <= lc.zeta_rise_year else INBOUND_HIGH
                for _ in range(n_refs):
                    if inbound is not None and rng.random() < inbound:
                        target_field = lc.focal_field
                    else:
                        target_field = _weighted_index(rng, cumrow)
                    candidates = by_field_prior[target_field] or all_prior
                    for _attempt in range(8):
                        rid = candidates[_rand_int(rng, 0, len(candidates) - 1)]
                        if rid not in seen:
                            seen.add(rid)
                            refs.append(rid)
                            break

            n_kw = _rand_int(rng, *spec.keywords_per_paper)
            keywords = sorted(_sample_distinct(rng, pools[primary], n_kw))
            n_authors = _rand_int(rng, *spec.authors_per_paper)
            paper_authors = _sample_distinct(rng, authors, n_authors)
            venue = venues[_rand_int(rng, 0, len(venues) - 1)]

            lines.append("")
            lines.append(f"#*Synthetic study {pid:06d}")
            lines.append("#@" + ",".join(paper_authors))
            lines.append(f"#t{year}")
            lines.append(f"#c{venue}")
            lines.append("#f" + ",".join(names[f] for f in sorted(fields)))
            lines.append("#k" + ",".join(keywords))
            lines.append(f"#index{pid}")
            for rid in refs:
                lines.append(f"#%{rid}")
            year_pids.append(pid)
            for f in fields:
                year_records.append((pid, f))
        for pid, f in year_records:
            by_field_prior[f].append(pid)
        all_prior.extend(year_pids)
        if lines:
            yield "\n".join(lines) + "\n"


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


def corpus_stats_direct(corpus: Corpus) -> MetricReport:
    """``corpus_stats`` from a built corpus: counts and years from its
    records, means by ``fsum`` over its records in id order."""
    n = len(corpus)
    multi = sum(1 for rec in corpus.records.values() if len(rec.fields) > 1)
    years = list(ids_by_year(corpus))
    mean_refs = fsum(len(rec.references) for rec in corpus.records.values()) / n
    mean_kw = fsum(len(rec.keywords) for rec in corpus.records.values()) / n
    report = MetricReport(
        name="corpus-stats",
        columns=("field_abbr", "papers", "share"),
        metadata=base_metadata(
            "corpus-stats",
            records=n,
            multi_field_fraction=multi / n,
            year_min=years[0],
            year_max=years[-1],
            mean_references=mean_refs,
            mean_keywords=mean_kw,
        ),
    )
    for f in corpus.taxonomy.indices:
        count = len(papers_in(corpus, field=f))
        report.add_row(corpus.taxonomy.abbr(f), count, count / n)
    return report

def _decoded_line(raw: bytes) -> str | UnicodeDecodeError:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc


def parse_lines_direct(
    data: bytes,
    taxonomy: FieldTaxonomy,
    strict: bool,
    report: ParseReport,
) -> Iterator[PaperRecord]:
    """The accepted records of ``data`` in file order, read by one state
    machine over its lines; ``report`` is filled as they are read.

    The parser's line loop as it stood before canonical blocks were
    matched whole: each line of ``data`` is decoded on its own, with its
    ``\n``, and one tag dispatch reads it. The parser must give the same
    records, counts and diagnostics, and raise the same ``ParseError``.
    """
    seen_ids: set[int] = set()
    # Memos bounded by the taxonomy: label lookups and field-index sets.
    field_of: dict[str, int | None] = {}  # field label -> taxonomy index, None if unknown
    fieldsets: dict[tuple[int, ...], frozenset[int]] = {}
    ordinal = 0
    in_block = False

    def emit(lineno: int, severity: str, code: str, message: str) -> None:
        d = Diagnostic(lineno, ordinal, severity, code, message)
        report.diagnostics.append(d)
        if strict and severity == ERROR:
            raise ParseError(d)

    def finish() -> PaperRecord | None:
        """Validate the block that just ended; None when it is skipped."""
        if undecodable:
            return None
        # Identity first: later diagnostics hang off the record's own lines.
        if index_raw is None:
            emit(first_line, ERROR, "missing-index", "record has no #index line")
            return None
        if not (index_raw.isascii() and index_raw.isdigit()):
            emit(index_line, ERROR, "malformed-index",
                 f"bad paper id {index_raw!r}")
            return None
        pid = int(index_raw)
        if pid in seen_ids:
            emit(index_line, ERROR, "duplicate-id", f"paper id {pid} already seen")
            return None

        year = None
        if year_raw is not None and year_raw.isascii() and year_raw.isdigit():
            year = int(year_raw)
        if year is None or not (YEAR_RANGE[0] <= year <= YEAR_RANGE[1]):
            emit(year_line or first_line, ERROR, "malformed-year",
                 f"missing or out-of-range year {year_raw!r}")
            return None

        if field_labels is None:
            emit(first_line, ERROR, "missing-fields", "record has no #f line")
            return None
        field_indices: list[int] = []
        unknown = False
        for lineno, label in field_labels:
            idx = field_of.get(label, -1)
            if idx == -1:
                idx = field_of[label] = taxonomy.get(label)
            if idx is None:
                severity = ERROR if strict else WARNING
                emit(lineno, severity, "unknown-field",
                     f"field label {label!r} not in taxonomy, dropped")
                unknown = True
            elif idx in field_indices:
                emit(lineno, WARNING, "duplicate-field-label",
                     f"field {label!r} tagged twice")
            else:
                field_indices.append(idx)
        if not field_indices:
            code = "no-valid-fields" if unknown else "missing-fields"
            emit(first_line, ERROR, code, "record has no usable field label")
            return None
        key = tuple(field_indices)
        fields = fieldsets.get(key)
        if fields is None:
            fields = fieldsets[key] = frozenset(key)

        # All references at once; line by line only to say what is wrong.
        # An empty value adds no character to the joined check; int() refuses it.
        digits = "".join(ref_raws)
        try:
            refs = tuple(map(int, ref_raws))
            clean = not refs or (digits.isascii() and digits.isdigit()
                                 and pid not in refs and len(set(refs)) == len(refs))
        except ValueError:
            clean = False
        if not clean:
            kept: dict[int, None] = {}
            for lineno, raw in zip(ref_lines, ref_raws):
                if not (raw.isascii() and raw.isdigit()):
                    emit(lineno, WARNING, "malformed-reference",
                         f"bad reference id {raw!r}, dropped")
                    continue
                rid = int(raw)
                if rid == pid:
                    emit(lineno, WARNING, "self-reference",
                         f"paper {pid} references itself, dropped")
                    continue
                if rid in kept:
                    emit(lineno, WARNING, "duplicate-reference",
                         f"reference {rid} repeated, deduplicated")
                    continue
                kept[rid] = None
            refs = tuple(kept)

        seen_ids.add(pid)
        keywords.discard("")
        return PaperRecord(
            pid, title or "", authors or (), year, venue or None, fields,
            tuple(sorted(keywords)), refs, abstract or None,
        )

    # One pass over the lines; a blank line appended at the end finishes the
    # last block. A line may keep its line break: every value is stripped.
    lines = [_decoded_line(raw) for raw in io.BytesIO(data)]
    for lineno, line in enumerate(chain(lines, ("",)), start=1):
        if type(line) is UnicodeDecodeError:  # the line is not UTF-8
            if line.object.startswith(COMMENT_PREFIX.encode()):  # skipped whatever it holds
                continue
            tag, decode_error = None, line
        elif line[:1] == "#":
            tag = line[1:2]
        elif not line.strip():  # a blank or whitespace-only line ends the block
            if in_block:
                in_block = False
                record = finish()
                if record is None:
                    report.skipped += 1
                else:
                    report.parsed += 1
                    yield record
            continue
        elif line.startswith(COMMENT_PREFIX):
            continue
        else:
            tag = ""
        if not in_block:
            # The ordinal moves when a block starts, so its scan warnings carry it.
            in_block = True
            ordinal += 1
            report.blocks += 1
            first_line = lineno
            title = authors = year_raw = venue = index_raw = abstract = field_labels = None
            year_line = index_line = 0
            keywords: set[str] = set()
            ref_lines: list[int] = []
            ref_raws: list[str] = []
            undecodable = False

        if tag == "%":
            ref_lines.append(lineno)
            ref_raws.append(line[2:].strip())
        elif tag == "k":
            # Collapse whitespace runs and case-fold the whole line at once:
            # no whitespace run holds a comma, so each trimmed comma-separated
            # piece equals that keyword normalized on its own.
            keywords.update(map(str.strip, " ".join(line[2:].split()).casefold().split(",")))
        elif tag == "i" and line.startswith("#index"):
            if index_raw is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #index ignored")
            else:
                index_raw = line[6:].strip()
                index_line = lineno
        elif tag == "*":
            if title is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #* ignored")
            else:
                title = line[2:].strip()
        elif tag == "@":
            if authors is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #@ ignored")
            else:
                names = map(str.strip, line[2:].split(","))
                authors = tuple([n for n in names if n])
        elif tag == "t":
            if year_raw is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #t ignored")
            else:
                year_raw = line[2:].strip()
                year_line = lineno
        elif tag == "c":
            if venue is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #c ignored")
            else:
                venue = line[2:].strip()
        elif tag == "f":
            if field_labels is None:
                field_labels = []
            for label in line[2:].split(","):
                label = label.strip()
                if label:
                    field_labels.append((lineno, label))
        elif tag == "!":
            if abstract is not None:
                emit(lineno, WARNING, "duplicate-tag", "extra #! ignored")
            else:
                abstract = line[2:].strip()
        elif tag is None:
            undecodable = True
            emit(lineno, ERROR, "encoding",
                 f"line is not valid UTF-8 ({decode_error.reason} at byte {decode_error.start})")
        else:
            line = line.rstrip("\n").rstrip("\r")
            emit(lineno, WARNING, "unknown-line", f"unrecognized line ignored: {line[:40]!r}")


# Verbatim copies of the record-based stats fold and cotag_report that the
# column folds replaced; the fold tests compare reports with them byte for
# byte.

def stats_fold_records(records, taxonomy: FieldTaxonomy) -> MetricReport | None:
    """``corpus_stats`` of ``records`` in one pass that keeps no record; None
    when there is none.

    The reference and keyword totals are ints, so each mean is the one
    ``fsum`` of the per-record lengths gives (exact below 2**53).
    """
    n = multi = n_refs = n_kw = 0
    year_min, year_max = math.inf, -math.inf
    counts = [0] * len(taxonomy)
    for rec in records:
        n += 1
        fields = rec.fields
        if len(fields) > 1:
            multi += 1
        for f in fields:
            counts[f] += 1
        n_refs += len(rec.references)
        n_kw += len(rec.keywords)
        year = rec.year
        if year < year_min:
            year_min = year
        if year > year_max:
            year_max = year
    if n == 0:
        return None
    report = MetricReport(
        name="corpus-stats",
        columns=("field_abbr", "papers", "share"),
        metadata=base_metadata(
            "corpus-stats",
            records=n,
            multi_field_fraction=multi / n,
            year_min=year_min,
            year_max=year_max,
            mean_references=n_refs / n,
            mean_keywords=n_kw / n,
        ),
    )
    for f in taxonomy.indices:
        report.add_row(taxonomy.abbr(f), counts[f], counts[f] / n)
    return report


def cotag_report_records(
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
        tags = (corpus[pid].fields for pid in papers_in(corpus, field=field_a, window=window))
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


# Verbatim copies of the record-based kernels that the column kernels
# replaced, and of the CLI commands that ran them on a built Corpus. Each
# kernel body is the one it replaces, except that ``first_author_key`` is a
# function here rather than a ``PaperRecord`` method. The reference test
# (``test_kernels.py``) compares their reports with the package's byte for
# byte; the commands take the kernels as a namespace, so the same commands
# also run the package's kernels on a Corpus.


def first_author_key(rec: PaperRecord) -> str | None:
    """``author_key`` of the first author; None without authors."""
    return author_key(rec.authors[0]) if rec.authors else None


def field_ref_counts(
    corpus: Corpus, paper_ids: Iterable[int], multiplicity: str
) -> dict[int, float]:
    records = corpus.records
    counts: dict[int, float] = {}
    for rid in paper_ids:
        rec = records.get(rid)
        if rec is None:
            continue
        inc = 1.0 if multiplicity == FULL_COUNT else 1.0 / len(rec.fields)
        for f in rec.fields:
            counts[f] = counts.get(f, 0.0) + inc
    return counts


def build_graph(corpus: Corpus, multiplicity: str = FULL_COUNT) -> CitationGraph:
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")
    out_edges: dict[int, tuple[int, ...]] = {}
    in_lists: dict[int, list[int]] = {}
    unresolved: dict[int, int] = {}

    records = corpus.records
    for pid, rec in records.items():
        resolved = tuple(sorted(rid for rid in rec.references if rid in records))
        out_edges[pid] = resolved
        unresolved[pid] = len(rec.references) - len(resolved)
        for rid in resolved:
            in_lists.setdefault(rid, []).append(pid)

    in_edges = {pid: tuple(citers) for pid, citers in in_lists.items()}
    return CitationGraph(out_edges, in_edges, unresolved, multiplicity)


def field_flow(
    graph: CitationGraph, corpus: Corpus, window: TimeWindow | None = None
) -> list[list[float]]:
    n = len(corpus.taxonomy)
    flow = [[0.0] * n for _ in range(n)]
    for pid in papers_in(corpus, window=window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(corpus, cited, graph.multiplicity)
        for i in sorted(corpus[pid].fields):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    return flow


def build_keyword_sets(
    corpus: Corpus,
    window: TimeWindow | None = None,
    scope: str = WINDOW_LOCAL,
) -> tuple[frozenset[str], ...]:
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
    if metric not in (RDI, KDI):
        raise ValueError(f"metric must be {RDI!r} or {KDI!r}")
    pools = build_keyword_sets(corpus, window, keyword_scope) if metric == KDI else None
    values = {}
    for pid in papers_in(corpus, window=window):
        if metric == RDI:
            v = rdi_paper(graph, corpus, pid)
        else:
            v = kdi_paper(corpus, pools, pid, normalized=normalized_kdi)
        if v is not None:
            values[pid] = v
    return values


def rank_order(values: dict[int, float]) -> list[int]:
    return sorted(values, key=lambda f: (-values[f], f))


def rank_fields(
    graph: CitationGraph,
    corpus: Corpus,
    metric: str,
    windows: list[TimeWindow],
    keyword_scope: str = WINDOW_LOCAL,
    normalized_kdi: bool = False,
) -> MetricReport:
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


class PaperImpact(NamedTuple):
    cp: int
    jif: float | None
    top_cited: bool


class ImpactScores(Slotted):
    __slots__ = ("per_paper", "window")

    def __init__(self, per_paper: dict[int, PaperImpact], window: TimeWindow | None):
        self.per_paper = per_paper
        self.window = window


def per_paper_scores(scores) -> dict[int, PaperImpact]:
    """``scores.per_paper`` of these kernels' ``ImpactScores``, or the
    package's score columns as the same dict."""
    if isinstance(scores, ImpactScores):
        return scores.per_paper
    return {pid: PaperImpact(cp, jif, cp >= scores.cutoff)
            for pid, cp, jif in zip(scores.ids, scores.cp, scores.jif)}


def citations_received(
    graph: CitationGraph, corpus: Corpus, pid: int, horizon: int | None = DEFAULT_HORIZON
) -> tuple[int, ...]:
    rec = corpus.records.get(pid)
    if rec is None:
        raise AnalysisError(f"unknown paper id {pid}")
    key = first_author_key(rec)
    return tuple(
        q for q in graph.in_edges.get(pid, ())
        if (horizon is None or 0 <= corpus[q].year - rec.year <= horizon - 1)
        and (key is None or first_author_key(corpus[q]) != key)
    )


def _jif_lookup(corpus: Corpus, graph: CitationGraph) -> Callable[[str, int], float | None]:
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


def compute_impact_scores(
    graph: CitationGraph,
    corpus: Corpus,
    window: TimeWindow | None = None,
    horizon: int | None = DEFAULT_HORIZON,
) -> ImpactScores:
    population = papers_in(corpus, window=window)
    if not population:
        raise AnalysisError("no papers in the analyzed window")
    jif_of = _jif_lookup(corpus, graph)
    cps = {pid: len(citations_received(graph, corpus, pid, horizon)) for pid in population}
    k = ceil(TOP_SHARE * len(population))
    cutoff = sorted(cps.values(), reverse=True)[k - 1]
    per_paper = {}
    for pid in population:
        rec = corpus[pid]
        j = jif_of(rec.venue, rec.year) if rec.venue else None
        per_paper[pid] = PaperImpact(cp=cps[pid], jif=j, top_cited=cps[pid] >= cutoff)
    return ImpactScores(per_paper=per_paper, window=window)


def top_cited_counts(
    scores: ImpactScores, corpus: Corpus, hit_rate: bool = False
) -> list[tuple[int, int]]:
    n = len(corpus.taxonomy)
    in_top = [0] * n
    in_population = [0] * n
    for pid, s in scores.per_paper.items():
        for f in corpus[pid].fields:
            in_population[f] += 1
            in_top[f] += s.top_cited
    top_size = sum(s.top_cited for s in scores.per_paper.values())
    return [(in_top[f], in_population[f] if hit_rate else top_size) for f in range(n)]


def bucket_impact(
    metric_values: dict[int, float],
    scores: ImpactScores,
    n_buckets: int = 5,
    metric_name: str = "metric",
) -> MetricReport:
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


def citation_fraction_matrix(
    graph: CitationGraph,
    corpus: Corpus,
    window: TimeWindow | None = None,
) -> list[list[float]]:
    matrix = []
    for row in field_flow(graph, corpus, window):
        total = _row_total(row)
        matrix.append([x / total for x in row] if total > 0 else [math.nan] * len(row))
    return matrix


def acp_bucket_test(
    graph: CitationGraph,
    corpus: Corpus,
    focal_field: int,
    target_field: int,
    focal_window: TimeWindow,
    threshold: float = 0.5,
) -> MetricReport:
    taxonomy = corpus.taxonomy
    buckets: tuple[list[int], list[int]] = ([], [])
    for pid in papers_in(corpus, field=focal_field, window=focal_window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(corpus, cited, graph.multiplicity)
        fraction = counts.get(target_field, 0.0) / len(cited)
        buckets[0 if fraction > threshold else 1].append(pid)
    classified = len(buckets[0]) + len(buckets[1])
    if classified == 0:
        raise AnalysisError("no focal papers with resolved references in the window")

    # ACP: citations from target-field papers into a bucket, per bucket paper.
    acps: list[float | None] = []
    for members in buckets:
        returns = sum(
            target_field in corpus[q].fields
            for pid in members
            for q in graph.in_edges.get(pid, ())
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


def _reference_split(graph: CitationGraph, corpus: Corpus, pid: int) -> tuple[int, int]:
    fields = corpus[pid].fields
    refs = graph.out_edges.get(pid, ())
    same = sum(1 for rid in refs if corpus[rid].fields & fields)
    return len(refs) - same, same


def evidence_series(
    graph: CitationGraph,
    corpus: Corpus,
    years: list[int] | None = None,
) -> MetricReport:
    by_year = ids_by_year(corpus)
    years = years if years is not None else list(by_year)
    wanted = set(years)
    rows: dict[int, tuple] = {}
    known: dict[str, frozenset[int]] = {}
    for y, ids in by_year.items():
        for pid in ids:
            rec = corpus[pid]
            for author in rec.authors:
                key = author_key(author)
                seen = known.get(key, frozenset())
                if not rec.fields <= seen:
                    known[key] = seen | rec.fields
        if y not in wanted:
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
                team_fields |= known[author_key(author)]
            if rec.authors:
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
    corpus: Corpus,
    focal: int,
    years: list[int] | None = None,
) -> FieldTrajectory:
    members = papers_in(corpus, field=focal)
    if not members:
        raise AnalysisError("field has no papers")
    if years is None:
        first = min(corpus[pid].year for pid in members)
        years = list(range(first, max(rec.year for rec in corpus.records.values()) + 1))
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


def _load(args) -> tuple:
    from citefields.cli import NO_RECORDS, _parse_input

    corpus, report = _parse_input(args)
    if len(corpus) == 0:
        raise AnalysisError(NO_RECORDS)
    years = ids_by_year(corpus)
    spans = getattr(args, "window", None) or getattr(args, "years", None) or []
    for span in spans if isinstance(spans, list) else [spans]:
        if not any(span.contains(year) for year in years):
            raise AnalysisError(f"no papers in the window {span}")
    return corpus, report


def _cmd_rank(k, args) -> MetricReport:
    corpus, _pr = _load(args)
    graph = k.build_graph(corpus, args.multiplicity)
    return k.rank_fields(
        graph, corpus, args.metric, args.window,
        keyword_scope=args.keyword_scope,
        normalized_kdi=args.normalized_kdi,
    )


def _cmd_impact(k, args) -> MetricReport:
    corpus, _pr = _load(args)
    taxonomy = corpus.taxonomy
    graph = k.build_graph(corpus)
    horizon = None if args.lifetime else args.horizon
    scores = k.compute_impact_scores(graph, corpus, window=args.window, horizon=horizon)
    meta = base_metadata(
        "impact",
        horizon="lifetime" if horizon is None else horizon,
        window=window_label(args.window),
    )
    if args.top_share:
        report = MetricReport(
            name="impact-top-share",
            columns=("field_abbr", "share", "numerator", "denominator"),
            metadata=meta,
        )
        counts = k.top_cited_counts(scores, corpus, hit_rate=args.hit_rate)
        for f in taxonomy.indices:
            num, den = counts[f]
            report.add_row(taxonomy.abbr(f), num / den if den else None, num, den)
        return report
    report = MetricReport(
        name="impact",
        columns=("paper_id", "cp", "jif", "top_cited"),
        metadata=meta,
    )
    for pid, s in per_paper_scores(scores).items():
        report.add_row(pid, s.cp, s.jif, int(s.top_cited))
    return report


def _cmd_buckets(k, args) -> MetricReport:
    corpus, _pr = _load(args)
    graph = k.build_graph(corpus, args.multiplicity)
    scores = k.compute_impact_scores(graph, corpus, window=args.window, horizon=args.horizon)
    values = k.paper_diversity(graph, corpus, args.metric, args.window, args.keyword_scope)
    return k.bucket_impact(values, scores, n_buckets=args.buckets, metric_name=args.metric)


def _cmd_reciprocity(k, args) -> MetricReport:
    corpus, _pr = _load(args)
    graph = k.build_graph(corpus, args.multiplicity)
    matrix = k.citation_fraction_matrix(graph, corpus, window=args.window)
    if args.matrix:
        return matrix_report(matrix, corpus.taxonomy, window=args.window)
    return pearson_report(
        matrix, corpus.taxonomy,
        include_diagonal=not args.exclude_diagonal,
        window=args.window,
    )


def _cmd_acp(k, args) -> MetricReport:
    from citefields.cli import _field_index

    corpus, _pr = _load(args)
    graph = k.build_graph(corpus, args.multiplicity)
    return k.acp_bucket_test(
        graph, corpus,
        _field_index(corpus.taxonomy, args.focal),
        _field_index(corpus.taxonomy, args.target),
        args.window,
        threshold=args.threshold,
    )


def _cmd_trajectory(k, args) -> MetricReport:
    from citefields.cli import _field_index

    corpus, _pr = _load(args)
    graph = k.build_graph(corpus)
    focal = _field_index(corpus.taxonomy, args.field)
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    trajectory = k.field_trajectory(graph, corpus, focal, years)
    if args.phases:
        detection = detect_phases(trajectory, min_years=args.min_years)
        return phases_report(trajectory, detection, corpus.taxonomy)
    return trajectory_report(trajectory, corpus.taxonomy)


def _cmd_evidence(k, args) -> MetricReport:
    corpus, _pr = _load(args)
    graph = k.build_graph(corpus)
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    return k.evidence_series(graph, corpus, years)


# The record-based CLI commands of the analyses, by subcommand. Each takes
# the kernels' namespace first: this module, or the ``citefields`` package.
RECORD_ANALYSES = {
    "rank": _cmd_rank,
    "impact": _cmd_impact,
    "buckets": _cmd_buckets,
    "reciprocity": _cmd_reciprocity,
    "acp": _cmd_acp,
    "trajectory": _cmd_trajectory,
    "evidence": _cmd_evidence,
}
