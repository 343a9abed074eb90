"""Command-line front end: parse -> graph -> analysis -> CSV/JSON report.

One subcommand per analysis. Reports go to stdout unless --output is given,
embed the tool version and a config echo, and are byte-identical for
identical inputs and flags (no timestamps anywhere). Errors print a
machine-readable JSON record to stderr and exit nonzero. The only
environment variable honored is CITEFIELDS_LOG (logging verbosity).

Exit codes: 0 success; 1 bad input or an undefined analysis (unreadable
file, strict-mode parse error, a corpus with no parsed records for any
subcommand but ``validate``, a ``--window`` or ``--years`` span holding no
paper); 2 usage error; 3 internal error (any other
exception, reported as the same JSON record; its traceback is logged at
DEBUG level).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .corpusio import LENIENT, STRICT, parse_corpus
from .diversity import (
    CORPUS_GLOBAL, KDI, RDI, WINDOW_LOCAL,
    build_keyword_sets, kdi_paper, rank_fields, rdi_paper,
)
from .errors import AnalysisError, CitefieldsError
from .graph import FRACTIONAL, FULL_COUNT, build_graph
from .impact import bucket_impact, compute_impact_scores, top_cited_share
from .records import TimeWindow
from .reciprocity import (
    acp_bucket_test, citation_fraction_matrix, matrix_report, pearson_report,
)
from .report import MetricReport, base_metadata
from .synth import GeneratorSpec, generate, load_generator_spec
from .taxonomy import FieldTaxonomy
from .trajectory import (
    cotag_report, detect_phases, evidence_series, field_trajectory,
    phases_report, trajectory_report,
)

logger = logging.getLogger(__name__)

EXIT_INTERNAL = 3


def _window(text: str) -> TimeWindow:
    return TimeWindow.parse(text)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _fraction(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefields",
        description="Citation-network analysis over research fields",
    )
    parser.add_argument("--version", action="version", version=f"citefields {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, corpus: bool = True) -> None:
        if corpus:
            p.add_argument("input", help="corpus file in the tagged record format")
            p.add_argument("--taxonomy", help="taxonomy sidecar file (default: built-in 24 fields)")
            p.add_argument("--strict", action="store_true",
                           help="abort on any parse error instead of skipping records")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", "-o", help="output file (default: stdout)")

    # Shared by every subcommand that counts references per field.
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument("--multiplicity", choices=(FULL_COUNT, FRACTIONAL),
                          default=FULL_COUNT,
                          help="how a reference to a k-field paper counts per field")

    p = sub.add_parser("validate", help="parse the corpus and report diagnostics")
    add_common(p)

    p = sub.add_parser("stats", help="per-field paper counts and corpus totals")
    add_common(p)

    p = sub.add_parser("rank", parents=[counting],
                       help="rank fields by a diversity metric per window")
    add_common(p)
    p.add_argument("--metric", choices=(RDI, KDI), required=True)
    p.add_argument("--window", type=_window, action="append", required=True,
                   metavar="START:END")
    p.add_argument("--keyword-scope", choices=(WINDOW_LOCAL, CORPUS_GLOBAL),
                   default=WINDOW_LOCAL)
    p.add_argument("--normalized-kdi", action="store_true",
                   help="renormalize keyword overlaps before the entropy sum")

    p = sub.add_parser("impact", help="per-paper impact scores (or per-field top-cited shares)")
    add_common(p)
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--horizon", type=_int_at_least(1), default=5,
                   help="citation horizon in years (default 5)")
    p.add_argument("--lifetime", action="store_true", help="count citations without a horizon")
    p.add_argument("--top-share", action="store_true",
                   help="emit per-field shares of the top-cited set instead")
    p.add_argument("--hit-rate", action="store_true",
                   help="with --top-share: fraction of each field's papers in the top set")

    p = sub.add_parser("buckets", parents=[counting],
                       help="impact means per equal-width diversity bucket")
    add_common(p)
    p.add_argument("--metric", choices=(RDI, KDI), required=True)
    p.add_argument("--buckets", type=_int_at_least(1), default=5)
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--horizon", type=_int_at_least(1), default=5)
    p.add_argument("--keyword-scope", choices=(WINDOW_LOCAL, CORPUS_GLOBAL),
                   default=WINDOW_LOCAL)

    p = sub.add_parser("reciprocity", parents=[counting],
                       help="citation-fraction matrix and reciprocity correlations")
    add_common(p)
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--matrix", action="store_true",
                   help="emit the citation-fraction matrix instead of correlations")
    p.add_argument("--exclude-diagonal", action="store_true")

    p = sub.add_parser("acp", parents=[counting],
                       help="return-citation bucket test for a focal/target field pair")
    add_common(p)
    p.add_argument("--focal", required=True, metavar="FIELD")
    p.add_argument("--target", required=True, metavar="FIELD")
    p.add_argument("--window", type=_window, required=True, metavar="START:END")
    p.add_argument("--threshold", type=_fraction, default=0.5)

    p = sub.add_parser("trajectory", help="per-year tau/zeta series for a field (or its phases)")
    add_common(p)
    p.add_argument("--field", required=True, metavar="FIELD")
    p.add_argument("--years", type=_window, metavar="START:END",
                   help="year span (default: field's first paper to corpus end)")
    p.add_argument("--phases", action="store_true",
                   help="emit the detected phase labeling instead of the series")
    p.add_argument("--min-years", type=_int_at_least(2), default=10)

    p = sub.add_parser("evidence", help="per-year corpus-wide cross-field indicators")
    add_common(p)
    p.add_argument("--years", type=_window, metavar="START:END")

    p = sub.add_parser("cotag", help="co-tagging counts and conditional probability per window")
    add_common(p)
    p.add_argument("--field-a", required=True, metavar="FIELD")
    p.add_argument("--field-b", required=True, metavar="FIELD")
    p.add_argument("--window", type=_window, action="append", required=True,
                   metavar="START:END")

    p = sub.add_parser("generate", help="emit a deterministic synthetic corpus")
    add_common(p, corpus=False)
    p.add_argument("--spec", help="flat key-value generator spec file")
    p.add_argument("--seed", type=int)
    return parser


def _load(args) -> tuple:
    taxonomy = (
        FieldTaxonomy.from_file(args.taxonomy)
        if getattr(args, "taxonomy", None)
        else FieldTaxonomy.default()
    )
    strictness = STRICT if getattr(args, "strict", False) else LENIENT
    with open(args.input, "rb") as fh:
        corpus, report = parse_corpus(fh, taxonomy, strictness=strictness)
    # Only validate has something to say about a corpus without records.
    if len(corpus) == 0 and args.command != "validate":
        raise AnalysisError("corpus has no parsed records, nothing to analyze")
    # Every --window and --years span must select at least one paper.
    spans = getattr(args, "window", None) or getattr(args, "years", None) or []
    for span in spans if isinstance(spans, list) else [spans]:
        if not any(span.contains(year) for year in corpus.by_year):
            raise AnalysisError(f"no papers in the window {span}")
    return corpus, report, taxonomy


def _fmt_flag(value) -> str:
    if isinstance(value, list):
        return ",".join(_fmt_flag(v) for v in value)
    return str(value)


def _config_echo(args) -> str:
    skip = {"command", "output", "format"}
    parts = [
        f"{key}={_fmt_flag(value)}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value not in (None, False)
    ]
    return " ".join(parts)


def _emit(report: MetricReport, args) -> None:
    report.metadata["command"] = args.command
    report.metadata["config"] = _config_echo(args)
    if args.output:
        report.write(args.output, args.format)
    else:
        report.write(sys.stdout, args.format)


def _field_index(taxonomy: FieldTaxonomy, label: str) -> int:
    idx = taxonomy.get(label)
    if idx is None:
        raise CitefieldsError(f"unknown field label {label!r}")
    return idx


def _cmd_validate(args) -> MetricReport:
    _corpus, parse_report, _taxonomy = _load(args)
    report = MetricReport(
        name="validate",
        columns=("line", "record", "severity", "code", "message"),
        metadata=base_metadata(
            "validate",
            blocks=parse_report.blocks,
            parsed=parse_report.parsed,
            skipped=parse_report.skipped,
        ),
    )
    for d in parse_report.diagnostics:
        report.add_row(d.line, d.record, d.severity, d.code, d.message)
    return report


def _cmd_stats(args) -> MetricReport:
    from .records import corpus_stats

    corpus, _pr, _tax = _load(args)
    return corpus_stats(corpus)


def _cmd_rank(args) -> MetricReport:
    corpus, _pr, _tax = _load(args)
    graph = build_graph(corpus, args.multiplicity)
    return rank_fields(
        graph, corpus, args.metric, args.window,
        keyword_scope=args.keyword_scope,
        normalized_kdi=args.normalized_kdi,
    )


def _cmd_impact(args) -> MetricReport:
    corpus, _pr, taxonomy = _load(args)
    graph = build_graph(corpus)
    horizon = None if args.lifetime else args.horizon
    scores = compute_impact_scores(graph, corpus, window=args.window, horizon=horizon)
    meta = base_metadata(
        "impact",
        horizon="lifetime" if horizon is None else horizon,
        window=str(args.window) if args.window else "all",
    )
    if args.top_share:
        report = MetricReport(
            name="impact-top-share",
            columns=("field_abbr", "share", "numerator", "denominator"),
            metadata=meta,
        )
        for f in taxonomy.indices:
            try:
                share, num, den = top_cited_share(
                    scores, corpus, f, window=args.window, hit_rate=args.hit_rate
                )
            except CitefieldsError:
                report.add_row(taxonomy.abbr(f), None, 0, 0)
                continue
            report.add_row(taxonomy.abbr(f), share, num, den)
        return report
    report = MetricReport(
        name="impact",
        columns=("paper_id", "cp", "jif", "top_cited"),
        metadata=meta,
    )
    for pid in sorted(scores.per_paper):
        s = scores.per_paper[pid]
        report.add_row(pid, s.cp, s.jif, int(s.top_cited))
    return report


def _cmd_buckets(args) -> MetricReport:
    corpus, _pr, _tax = _load(args)
    graph = build_graph(corpus, args.multiplicity)
    scores = compute_impact_scores(graph, corpus, window=args.window, horizon=args.horizon)
    values: dict[int, float] = {}
    if args.metric == RDI:
        for pid in scores.per_paper:
            v = rdi_paper(graph, corpus, pid)
            if v is not None:
                values[pid] = v
    else:
        sets = build_keyword_sets(corpus, args.window, args.keyword_scope)
        for pid in scores.per_paper:
            v = kdi_paper(corpus, sets, pid)
            if v is not None:
                values[pid] = v
    return bucket_impact(values, scores, n_buckets=args.buckets, metric_name=args.metric)


def _cmd_reciprocity(args) -> MetricReport:
    corpus, _pr, taxonomy = _load(args)
    graph = build_graph(corpus, args.multiplicity)
    matrix = citation_fraction_matrix(graph, corpus, window=args.window)
    if args.matrix:
        return matrix_report(matrix, taxonomy, window=args.window)
    return pearson_report(
        matrix, taxonomy,
        include_diagonal=not args.exclude_diagonal,
        window=args.window,
    )


def _cmd_acp(args) -> MetricReport:
    corpus, _pr, taxonomy = _load(args)
    graph = build_graph(corpus, args.multiplicity)
    return acp_bucket_test(
        graph, corpus,
        _field_index(taxonomy, args.focal),
        _field_index(taxonomy, args.target),
        args.window,
        threshold=args.threshold,
    )


def _cmd_trajectory(args) -> MetricReport:
    corpus, _pr, taxonomy = _load(args)
    graph = build_graph(corpus)
    focal = _field_index(taxonomy, args.field)
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    trajectory = field_trajectory(graph, corpus, focal, years)
    if args.phases:
        detection = detect_phases(trajectory, min_years=args.min_years)
        return phases_report(trajectory, detection, taxonomy)
    return trajectory_report(trajectory, taxonomy)


def _cmd_evidence(args) -> MetricReport:
    corpus, _pr, _tax = _load(args)
    graph = build_graph(corpus)
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    return evidence_series(graph, corpus, years)


def _cmd_cotag(args) -> MetricReport:
    corpus, _pr, taxonomy = _load(args)
    return cotag_report(
        corpus,
        _field_index(taxonomy, args.field_a),
        _field_index(taxonomy, args.field_b),
        args.window,
    )


def _cmd_generate(args) -> None:
    spec = load_generator_spec(args.spec) if args.spec else GeneratorSpec()
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    text = generate(spec)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "rank": _cmd_rank,
    "impact": _cmd_impact,
    "buckets": _cmd_buckets,
    "reciprocity": _cmd_reciprocity,
    "acp": _cmd_acp,
    "trajectory": _cmd_trajectory,
    "evidence": _cmd_evidence,
    "cotag": _cmd_cotag,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("CITEFIELDS_LOG", "WARNING").upper())
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "hit_rate", False) and not args.top_share:
        parser.error("--hit-rate requires --top-share")
    try:
        if args.command == "generate":
            _cmd_generate(args)
            return 0
        report = _COMMANDS[args.command](args)
        _emit(report, args)
        return 0
    except (CitefieldsError, OSError, ValueError) as exc:
        _error_record(exc)
        return 1
    except Exception as exc:  # last resort: a JSON record, never a traceback
        logger.debug("internal error", exc_info=True)
        _error_record(exc)
        return EXIT_INTERNAL


def _error_record(exc: Exception) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
