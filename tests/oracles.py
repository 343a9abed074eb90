"""Independent reference implementations used to cross-check the library.

Everything here recomputes results directly from raw PaperRecord data with
straight-line code (quadratic scans, raw-moment formulas), deliberately
avoiding the library's graph/index structures so a bug cannot cancel out
on both sides of a comparison. numpy serves here as a reference only; the
library does not load it for any analysis.
"""

from __future__ import annotations

import io
import math
from itertools import chain
from math import fsum
from typing import Iterator

import numpy as np

from citefields import Corpus, FieldTaxonomy, MetricReport, PaperRecord, TimeWindow
from citefields.corpusio import COMMENT_PREFIX, ERROR, WARNING, Diagnostic, ParseReport
from citefields.errors import ParseError
from citefields.records import YEAR_RANGE
from citefields.report import base_metadata


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


def corpus_stats_direct(corpus: Corpus) -> MetricReport:
    """``corpus_stats`` from a built corpus: counts from its partitions, means
    by ``fsum`` over its records in id order."""
    n = len(corpus)
    multi = sum(1 for rec in corpus.records.values() if len(rec.fields) > 1)
    years = corpus.years()
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
        count = len(corpus.by_field.get(f, ()))
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
