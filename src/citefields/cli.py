"""Command-line front end: parse -> column table -> graph -> analysis -> report.

One subcommand per analysis. Reports go to stdout unless --output is given,
carry the tool version and a config echo, and are byte-identical for
identical inputs and flags. Errors print a JSON record to stderr and exit
nonzero. The only environment variable honored is CITEFIELDS_LOG, a level
name (DEBUG, INFO, WARNING, the default, ERROR or CRITICAL) in any case: at
DEBUG an internal error's traceback is logged before its record, and any
other value is a usage error, reported before any input is read.

``_READ_WHEN`` says in which mode each conditional flag is read; given in
another, even at its default, it is a usage error. One driver, ``_analyze``,
runs each analysis of ``_ANALYSES`` on the columns and graph it reads.

Exit codes: 0 success; 1 bad input or an undefined analysis (unreadable
file, strict-mode parse error, no parsed record for any subcommand but
``validate``, a ``--window`` or ``--years`` span holding no paper); 2 usage
error; 3 internal error (any other exception, as the same JSON record).

The import loads no more than the work needs: ``json`` for a JSON report or
an error record, ``logging`` for an internal error at DEBUG, and ``synth``
only for ``generate``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .corpusio import LENIENT, STRICT, discard_records, parse_corpus
from .diversity import CORPUS_GLOBAL, KDI, RDI, WINDOW_LOCAL, paper_diversity, rank_fields
from .errors import AnalysisError, CitefieldsError
from .graph import FRACTIONAL, FULL_COUNT, build_graph
from .impact import DEFAULT_HORIZON, bucket_impact, compute_impact_scores, top_cited_counts
from .records import PaperTable, TimeWindow, _stats_fold
from .reciprocity import (
    acp_bucket_test, citation_fraction_matrix, matrix_report, pearson_report,
)
from .report import MetricReport, base_metadata, window_label
from .taxonomy import FieldTaxonomy
from .trajectory import (
    _cotag_fold, _cotag_rows, detect_phases, evidence_series, field_trajectory,
    phases_report, trajectory_report,
)

EXIT_USAGE = 2
EXIT_INTERNAL = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

NO_RECORDS = "corpus has no parsed records, nothing to analyze"

# Each conditional flag: the mode flag and value it is read under (always, in
# a subcommand without that mode flag), its default and its usage error.
_READ_WHEN = {
    "hit_rate": ("top_share", True, False, "--hit-rate requires --top-share"),
    "horizon": ("lifetime", False, DEFAULT_HORIZON,
                "--horizon applies to counts within a horizon, not to --lifetime"),
    "exclude_diagonal": ("matrix", False, False,
                         "--exclude-diagonal applies to the correlations, not to --matrix"),
    "min_years": ("phases", True, 10, "--min-years requires --phases"),
    "normalized_kdi": ("metric", KDI, False, "--normalized-kdi requires --metric kdi"),
    "keyword_scope": ("metric", KDI, WINDOW_LOCAL, "--keyword-scope requires --metric kdi"),
    "multiplicity": ("metric", RDI, FULL_COUNT, "--multiplicity requires --metric rdi"),
}


def _read_help(flag: str, text: str, moded: bool = True) -> str:
    """``text`` with the default of ``flag`` and, where the subcommand has
    its mode flag (``moded``), the mode it is read in, as ``_READ_WHEN`` has
    them."""
    mode, read_under, default, _message = _READ_WHEN[flag]
    if not moded:
        return f"{text} (default: {default})"
    when = "--" + mode.replace("_", "-") + ("" if read_under is True else f" {read_under}")
    return f"{text} (default: {default}; read only with {when})"


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

    def add(name: str, summary: str, *parents, corpus: bool = True) -> argparse.ArgumentParser:
        """A subcommand with ``parents``' flags, then its input and output flags."""
        p = sub.add_parser(name, parents=list(parents), help=summary)
        if corpus:
            p.add_argument("input", help="corpus file in the tagged record format")
            p.add_argument("--taxonomy", help="taxonomy sidecar file (default: built-in 24 fields)")
            p.add_argument("--strict", action="store_true",
                           help="abort on any parse error instead of skipping records")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", "-o", help="output file (default: stdout)")
        return p

    def counting(moded: bool) -> argparse.ArgumentParser:
        """The flag of a subcommand that counts references per field, read
        in every mode unless it is ``moded`` by ``--metric``."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--multiplicity", choices=(FULL_COUNT, FRACTIONAL), help=_read_help(
            "multiplicity", "how a reference to a k-field paper counts per field", moded))
        return parent

    keyword_scope = _read_help(
        "keyword_scope", "keyword pools of the window's papers or of the whole corpus")
    # Shared by every subcommand that scores impact.
    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--horizon", type=_int_at_least(1),
                         help=f"citation horizon in years (default {DEFAULT_HORIZON})")

    add("validate", "parse the corpus and report diagnostics")

    add("stats", "per-field paper counts and corpus totals")

    p = add("rank", "rank fields by a diversity metric per window", counting(True))
    p.add_argument("--metric", choices=(RDI, KDI), required=True)
    p.add_argument("--window", type=_window, action="append", required=True,
                   metavar="START:END")
    p.add_argument("--keyword-scope", choices=(WINDOW_LOCAL, CORPUS_GLOBAL), help=keyword_scope)
    p.add_argument("--normalized-kdi", action="store_true",
                   help="renormalize keyword overlaps before the entropy sum")

    p = add("impact", "per-paper impact scores (or per-field top-cited shares)", horizon)
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--lifetime", action="store_true", help="count citations without a horizon")
    p.add_argument("--top-share", action="store_true",
                   help="emit per-field shares of the top-cited set instead")
    p.add_argument("--hit-rate", action="store_true",
                   help="with --top-share: fraction of each field's papers in the top set")

    p = add("buckets", "impact means per equal-width diversity bucket", counting(True), horizon)
    p.add_argument("--metric", choices=(RDI, KDI), required=True)
    p.add_argument("--buckets", type=_int_at_least(1), default=5)
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--keyword-scope", choices=(WINDOW_LOCAL, CORPUS_GLOBAL), help=keyword_scope)

    p = add("reciprocity", "citation-fraction matrix and reciprocity correlations",
            counting(False))
    p.add_argument("--window", type=_window, metavar="START:END")
    p.add_argument("--matrix", action="store_true",
                   help="emit the citation-fraction matrix instead of correlations")
    p.add_argument("--exclude-diagonal", action="store_true")

    p = add("acp", "return-citation bucket test for a focal/target field pair", counting(False))
    p.add_argument("--focal", required=True, metavar="FIELD")
    p.add_argument("--target", required=True, metavar="FIELD")
    p.add_argument("--window", type=_window, required=True, metavar="START:END")
    p.add_argument("--threshold", type=_fraction, default=0.5)

    p = add("trajectory", "per-year tau/zeta series for a field (or its phases)")
    p.add_argument("--field", required=True, metavar="FIELD")
    p.add_argument("--years", type=_window, metavar="START:END",
                   help="year span (default: field's first paper to corpus end)")
    p.add_argument("--phases", action="store_true",
                   help="emit the detected phase labeling instead of the series")
    p.add_argument("--min-years", type=_int_at_least(2), help=_read_help(
        "min_years", "fewest years with a defined tau that a phase labeling needs"))

    p = add("evidence", "per-year corpus-wide cross-field indicators")
    p.add_argument("--years", type=_window, metavar="START:END")

    p = add("cotag", "co-tagging counts and conditional probability per window")
    p.add_argument("--field-a", required=True, metavar="FIELD")
    p.add_argument("--field-b", required=True, metavar="FIELD")
    p.add_argument("--window", type=_window, action="append", required=True,
                   metavar="START:END")

    p = add("generate", "emit a deterministic synthetic corpus", corpus=False)
    p.add_argument("--spec", help="flat key-value generator spec file")
    p.add_argument("--seed", type=_int_at_least(0))
    return parser


def _parse_input(args, into=None) -> tuple:
    """``parse_corpus`` of ``args.input``, with ``into`` as there."""
    taxonomy = FieldTaxonomy.from_file(args.taxonomy) if args.taxonomy else FieldTaxonomy.default()
    strictness = STRICT if args.strict else LENIENT
    # The process ends after one report, so what the parse built lives to the
    # end: freeze it, and the collector never scans it again.
    gc.disable()
    try:
        with open(args.input, "rb") as fh:
            return parse_corpus(fh, taxonomy, strictness=strictness, into=into)
    finally:
        gc.freeze()
        gc.enable()


def _require_papers(args, papers: int, years) -> None:
    """Raise unless there are ``papers`` and every --window and --years span
    holds one of ``years``, the years they were published in."""
    if papers == 0:
        raise AnalysisError(NO_RECORDS)
    spans = getattr(args, "window", None) or getattr(args, "years", None) or []
    for span in spans if isinstance(spans, list) else [spans]:
        if not any(span.contains(year) for year in years):
            raise AnalysisError(f"no papers in the window {span}")


def _fmt_flag(value) -> str:
    if isinstance(value, list):
        return ",".join(_fmt_flag(v) for v in value)
    return str(value)


def _echo_value(text: str) -> str:
    """``text`` as one ``key=value`` value of the config echo: in double
    quotes, with ``\\`` and ``"`` escaped by a backslash, when it holds
    whitespace, ``=``, ``"`` or ``\\``, so that no value reads as more pairs."""
    if any(c.isspace() or c in '="\\' for c in text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return text


def _config_echo(args) -> str:
    skip = {"command", "output", "format"}
    parts = [
        f"{key}={_echo_value(_fmt_flag(value))}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None and value is not False
    ]
    return " ".join(parts)


def _emit(report: MetricReport, args) -> None:
    report.metadata["command"] = args.command
    report.metadata["config"] = _config_echo(args)
    report.write(args.output or sys.stdout, args.format)


def _field_index(taxonomy: FieldTaxonomy, label: str) -> int:
    idx = taxonomy.get(label)
    if idx is None:
        raise CitefieldsError(f"unknown field label {label!r}")
    return idx


def _cmd_validate(args) -> MetricReport:
    # Only the parse report is written, so no record is built.
    _none, parse_report = _parse_input(args, into=discard_records)
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
    # The fold reads four columns, so no record is built.
    report, _pr = _parse_input(args, into=_stats_fold)
    if report is None:
        raise AnalysisError(NO_RECORDS)
    return report


def _analyze(args) -> MetricReport:
    """Parse, check and run the table analysis of ``args.command``: kdi reads
    keywords, and a graph, all that reads references, is built when they are."""
    columns, run = _ANALYSES[args.command]
    metric = getattr(args, "metric", None)
    columns += {KDI: ("keywords",), RDI: ("references",)}.get(metric, ())
    papers, _pr = _parse_input(args, into=PaperTable.reader(*columns))
    _require_papers(args, len(papers), set(papers.year.values()))
    multiplicity = getattr(args, "multiplicity", FULL_COUNT)
    graph = None if papers.references is None else build_graph(papers, multiplicity)
    return run(args, papers, graph)


def _run_rank(args, papers, graph) -> MetricReport:
    return rank_fields(
        graph, papers, args.metric, args.window,
        keyword_scope=args.keyword_scope,
        normalized_kdi=args.normalized_kdi,
    )


def _run_impact(args, papers, graph) -> MetricReport:
    taxonomy = papers.taxonomy
    horizon = None if args.lifetime else args.horizon
    scores = compute_impact_scores(graph, papers, window=args.window, horizon=horizon)
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
        counts = top_cited_counts(scores, papers, hit_rate=args.hit_rate)
        for f in taxonomy.indices:
            num, den = counts[f]
            report.add_row(taxonomy.abbr(f), num / den if den else None, num, den)
        return report
    report = MetricReport(
        name="impact",
        columns=("paper_id", "cp", "jif", "top_cited"),
        metadata=meta,
    )
    for pid, s in scores.per_paper.items():
        report.add_row(pid, s.cp, s.jif, int(s.top_cited))
    return report


def _run_buckets(args, papers, graph) -> MetricReport:
    scores = compute_impact_scores(graph, papers, window=args.window, horizon=args.horizon)
    values = paper_diversity(graph, papers, args.metric, args.window, args.keyword_scope)
    return bucket_impact(values, scores, n_buckets=args.buckets, metric_name=args.metric)


def _run_reciprocity(args, papers, graph) -> MetricReport:
    matrix = citation_fraction_matrix(graph, papers, window=args.window)
    if args.matrix:
        return matrix_report(matrix, papers.taxonomy, window=args.window)
    return pearson_report(
        matrix, papers.taxonomy,
        include_diagonal=not args.exclude_diagonal,
        window=args.window,
    )


def _run_acp(args, papers, graph) -> MetricReport:
    return acp_bucket_test(
        graph, papers,
        _field_index(papers.taxonomy, args.focal),
        _field_index(papers.taxonomy, args.target),
        args.window,
        threshold=args.threshold,
    )


def _run_trajectory(args, papers, graph) -> MetricReport:
    focal = _field_index(papers.taxonomy, args.field)
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    trajectory = field_trajectory(graph, papers, focal, years)
    if args.phases:
        detection = detect_phases(trajectory, min_years=args.min_years)
        return phases_report(trajectory, detection, papers.taxonomy)
    return trajectory_report(trajectory, papers.taxonomy)


def _run_evidence(args, papers, graph) -> MetricReport:
    years = list(range(args.years.start, args.years.end + 1)) if args.years else None
    return evidence_series(graph, papers, years)


# Each table analysis: its optional PaperTable columns beside its metric's,
# references where it needs a graph whatever its metric, and its run, whose
# kernels are looked up as this module's globals when it is called.
_ANALYSES = {
    "rank": ((), _run_rank),
    "impact": (("references", "venue", "first_author"), _run_impact),
    "buckets": (("references", "venue", "first_author"), _run_buckets),
    "reciprocity": (("references",), _run_reciprocity),
    "acp": (("references",), _run_acp),
    "trajectory": (("references",), _run_trajectory),
    "evidence": (("references", "authors"), _run_evidence),
}


def _cmd_cotag(args) -> MetricReport:
    # Years and field sets are all it reads, so no record is built.
    (tally, taxonomy), _pr = _parse_input(args, into=_cotag_fold)
    _require_papers(args, sum(tally.values()), {year for year, _fields in tally})
    return _cotag_rows(
        tally, taxonomy,
        _field_index(taxonomy, args.field_a),
        _field_index(taxonomy, args.field_b),
        args.window,
    )


def _cmd_generate(args) -> None:
    # The generator's spec is a dataclass; no other subcommand loads one.
    from dataclasses import replace

    from .synth import generate_chunks, load_generator_spec

    # An empty spec is the default spec.
    spec_text = Path(args.spec).read_text(encoding="utf-8") if args.spec else ""
    spec = load_generator_spec(spec_text)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    chunks = generate_chunks(spec)
    # The first chunk comes after the spec is validated, so a bad spec opens
    # no output file.
    header = next(chunks)
    # A chunk at a time, so no copy of the whole text is held.
    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as out:
        out.write(header)
        for chunk in chunks:
            out.write(chunk)


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    **dict.fromkeys(_ANALYSES, _analyze),
    "cotag": _cmd_cotag,
}


def main(argv: list[str] | None = None) -> int:
    log_level = os.environ.get("CITEFIELDS_LOG", "WARNING")
    if log_level.upper() not in LOG_LEVELS:
        _error_record(ValueError(
            f"CITEFIELDS_LOG must be one of {', '.join(LOG_LEVELS)}, got {log_level!r}"
        ))
        return EXIT_USAGE
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, (mode, read_under, default, message) in _READ_WHEN.items():
        given = getattr(args, flag, False)
        if given is None:
            setattr(args, flag, default)
        elif given is not False and getattr(args, mode, read_under) != read_under:
            parser.error(message)
    try:
        if args.command == "generate":
            _cmd_generate(args)
        else:
            _emit(_COMMANDS[args.command](args), args)
        return 0
    except (CitefieldsError, OSError, ValueError) as exc:
        _error_record(exc)
        return 1
    except Exception as exc:  # last resort: a JSON record, never a traceback
        if log_level.upper() == "DEBUG":
            import logging

            logging.basicConfig(level=logging.DEBUG)
            logging.getLogger(__name__).debug("internal error", exc_info=True)
        _error_record(exc)
        return EXIT_INTERNAL


def _error_record(exc: Exception) -> None:
    import json

    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
