"""Traced child process: one citefields CLI invocation with a span at each layer boundary.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py SPANS_JSON INVOCATION_ID -- CLI_ARGS...

The runner imports ``citefields.cli``, replaces the public names each module
calls across a layer boundary with wrappers that record spans or call
counts, then calls ``citefields.cli.main(CLI_ARGS)``. Spans stay in memory
and are written to ``SPANS_JSON`` after ``main`` returns; the exit code is
``main``'s. Nothing under ``src/`` is changed: the wrappers live only in
this process.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import Counter


class Tracer:
    """Spans and call counts of one invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, counters=None):
        """Run ``fn`` inside a span named ``name``.

        ``counters(result)`` runs after the span has closed, so the work of
        counting is not charged to the layer.
        """
        span = {
            "name": name, "invocation": self.invocation,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "counters": {},
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn()
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            span["counters"] = counters(result)
        return result

    def wrap(self, owner, attr: str, name: str, counters=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = None if counters is None else lambda result: counters(result, args)
            return self.call(name, lambda: fn(*args, **kwargs), count)

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse_counters(result, args) -> dict:
    """The parse's sizes, and the process's memory high-water mark right after it.

    The high-water mark is read first, and the lines are counted a block at a
    time, so the counting does not raise the peak it reports.
    """
    rss_mb = _max_rss_mb()
    _corpus, report = result
    lines = 0
    with open(args[0].name, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 16), b""):
            lines += chunk.count(b"\n")
    return {
        "lines": lines, "blocks": report.blocks, "skipped": report.skipped,
        "diagnostics": len(report.diagnostics), "rss_mb": rss_mb,
    }


def _graph_counters(graph, _args) -> dict:
    return {"edges": graph.total_edges, "dangling": sum(graph.unresolved.values())}


def _write_counters(_result, args) -> dict:
    report, target = args[0], args[1]
    size = os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0
    return {"rows": len(report.rows), "bytes": size}


def install(tracer: Tracer) -> None:
    """Wrap every cross-layer name the CLI's subcommands reach."""
    from citefields import cli, corpusio, diversity, graph, impact, reciprocity, records, report

    tracer.wrap(cli, "parse_corpus", "corpusio.parse", _parse_counters)
    tracer.wrap(corpusio, "Corpus", "records.corpus_init")
    tracer.count(records.Corpus, "papers_in", "records.papers_in_calls")
    tracer.wrap(cli, "build_graph", "graph.build", _graph_counters)
    tracer.count(graph, "field_ref_counts", "graph.field_ref_counts_calls")
    tracer.count(reciprocity, "field_ref_counts", "graph.field_ref_counts_calls")
    tracer.count(impact, "citations_received", "graph.citations_received_calls")
    tracer.wrap(cli, "rank_fields", "diversity.rank_fields")
    tracer.wrap(diversity, "build_keyword_sets", "diversity.build_keyword_sets")
    tracer.count(diversity, "rdi_paper", "diversity.rdi_paper_calls")
    tracer.count(diversity, "kdi_paper", "diversity.kdi_paper_calls")
    tracer.wrap(cli, "compute_impact_scores", "impact.compute_impact_scores",
                lambda scores, _args: {"population": len(scores.per_paper)})
    tracer.wrap(cli, "citation_fraction_matrix", "reciprocity.citation_fraction_matrix")
    tracer.wrap(cli, "acp_bucket_test", "reciprocity.acp_bucket_test")
    tracer.wrap(cli, "evidence_series", "trajectory.evidence_series")
    tracer.wrap(cli, "field_trajectory", "trajectory.field_trajectory")
    tracer.wrap(cli, "detect_phases", "trajectory.detect_phases")
    tracer.wrap(report.MetricReport, "write", "report.write", _write_counters)


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON INVOCATION_ID -- CLI_ARGS...")
    tracer = Tracer(invocation)
    # The import is timed as its own span: it is paid once per process.
    cli = tracer.call("cli.import", lambda: __import__("citefields.cli", fromlist=["main"]))
    install(tracer)
    code = tracer.call("cli.main", lambda: cli.main(cli_args))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
