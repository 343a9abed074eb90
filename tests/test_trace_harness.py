"""The benchmark's traced runner still wraps every name it reaches for.

``perfbench/traced.py`` replaces public names of the package with timing
wrappers before it calls the CLI. A renamed or deleted name makes it fail
with ``AttributeError``; this test runs it on a tiny corpus so such a
change fails here rather than in a benchmark run. Every subcommand of the
CLI gets one traced run, so a new subcommand needs one here too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from citefields import TimeWindow, parse_corpus
from citefields.cli import _ANALYSES, main
from conftest import child_env
from test_golden import defect_corpus

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"

INVOCATIONS = {
    "validate": ("validate", "--format", "json"),
    "stats": ("stats",),
    "rank": ("rank", "--metric", "rdi", "--window", "1970:1974"),
    "rank-kdi": ("rank", "--metric", "kdi", "--window", "1970:1974"),
    "impact": ("impact",),
    "impact-top-share": ("impact", "--top-share"),
    "buckets-rdi": ("buckets", "--metric", "rdi"),
    "buckets-kdi": ("buckets", "--metric", "kdi"),
    "reciprocity": ("reciprocity",),
    "acp": ("acp", "--focal", "AI", "--target", "Algo", "--window", "1970:1974"),
    "trajectory": ("trajectory", "--field", "AI"),
    "trajectory-phases": ("trajectory", "--field", "AI", "--phases", "--min-years", "2"),
    "evidence": ("evidence",),
    "cotag": ("cotag", "--field-a", "AI", "--field-b", "Algo", "--window", "1970:1974"),
}
NO_GRAPH = {"validate", "stats", "cotag", "rank-kdi"}
# The kernel spans each analysis must record: the CLI calls its kernels by
# the names the runner replaces, not by references bound at import.
KERNELS = {
    "rank": {"diversity.rank_fields"},
    "rank-kdi": {"diversity.rank_fields", "diversity.build_keyword_sets"},
    "impact": {"impact.compute_impact_scores"},
    "impact-top-share": {"impact.compute_impact_scores"},
    "buckets-rdi": {"impact.compute_impact_scores"},
    "buckets-kdi": {"impact.compute_impact_scores", "diversity.build_keyword_sets"},
    "reciprocity": {"reciprocity.citation_fraction_matrix"},
    "acp": {"reciprocity.acp_bucket_test"},
    "trajectory": {"trajectory.field_trajectory"},
    "trajectory-phases": {"trajectory.field_trajectory", "trajectory.detect_phases"},
    "evidence": {"trajectory.evidence_series"},
}
# Every subcommand folds or tables the columns it reads as the parse gives
# them, and builds no Corpus.
NO_CORPUS = set(INVOCATIONS)


def test_every_subcommand_has_a_traced_run():
    assert {args[0] for args in INVOCATIONS.values()} == set(_ANALYSES)


@pytest.mark.parametrize("label", sorted(INVOCATIONS))
def test_traced_runner_completes(label, tiny_corpus):
    spans = tiny_corpus.parent / f"{label}.spans.json"
    out = tiny_corpus.parent / f"{label}.csv"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), label, "--",
         *INVOCATIONS[label], str(tiny_corpus), "-o", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    by_name = {span["name"]: span for span in traced["spans"]}
    names = set(by_name)
    layers = {"cli.import", "cli.main", "corpusio.parse", "report.write"}
    assert layers <= names
    assert ("records.corpus_init" in names) is (label not in NO_CORPUS)
    assert ("graph.build" in names) is (label not in NO_GRAPH)
    assert KERNELS.get(label, set()) <= names
    counts = traced["counts"]
    with open(tiny_corpus, "rb") as fh:
        corpus, _report = parse_corpus(fh)
    if label not in NO_GRAPH:
        # The graph sizes the benchmark checks in every traced run, counted
        # here from the parsed records.
        refs = [rid for pid in corpus for rid in corpus[pid].references]
        edges = sum(rid in corpus for rid in refs)
        assert by_name["graph.build"]["counters"] == {"edges": edges, "dangling": len(refs) - edges}
    if label in ("rank", "rank-kdi"):
        # One counted per-paper score for each paper of the ranked window.
        papers = len(corpus.papers_in(window=TimeWindow(1970, 1974)))
        metric = "rdi" if label == "rank" else "kdi"
        assert counts[f"diversity.{metric}_paper_calls"] == papers
    if label == "impact":
        # One counted cp rule call per scored paper, that is per report row,
        # and the population and rows the benchmark checks are those rows.
        rows = len([line for line in out.read_text().splitlines() if not line.startswith("#")]) - 1
        assert counts["graph.citations_received_calls"] == rows
        assert by_name["impact.compute_impact_scores"]["counters"]["population"] == rows
        assert by_name["report.write"]["counters"]["rows"] == rows


def test_traced_validate_sizes_match_the_report(tmp_path):
    """The parse span of a traced ``validate`` on planted defects counts the
    blocks, skipped records and diagnostics its report gives untraced: the
    sizes the benchmark checks in every traced ``ingest-50k`` run."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(defect_corpus())
    untraced = tmp_path / "untraced.json"
    assert main(["validate", str(corpus), "--format", "json", "-o", str(untraced)]) == 0
    report = json.loads(untraced.read_text())
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "validate", "--",
         *INVOCATIONS["validate"], str(corpus), "-o", str(tmp_path / "traced.json")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    [parse] = [s for s in json.loads(spans.read_text())["spans"] if s["name"] == "corpusio.parse"]
    counters = parse["counters"]
    assert (counters["blocks"], counters["skipped"], counters["diagnostics"]) == (
        report["metadata"]["blocks"], report["metadata"]["skipped"], len(report["rows"]))
