"""Citation graph: resolution, adjacency invariants, field counts and flow,
and the refusal of a graph built from another table."""

import sys
import tracemalloc
from math import fsum

import pytest

from citefields import (
    AnalysisError, FRACTIONAL, FULL_COUNT, GeneratorSpec, TimeWindow, acp_bucket_test,
    build_graph, citation_fraction_matrix, compute_impact_scores, evidence_series,
    field_flow, field_trajectory, generate_corpus, paper_diversity, parse_corpus, rank_fields,
)
from citefields.diversity import rdi_paper
from citefields.graph import field_ref_counts
from citefields.impact import citations_received
from conftest import GOLDEN_RECORD, corpus_of, impact_table, rec
from oracles import field_counts_direct


def test_single_edge_same_field():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    graph = build_graph(corpus)
    row = corpus.table.row
    assert graph.out_edges[row[1]] == (row[2],)
    assert graph.in_edges[row[2]] == (row[1],)
    assert field_flow(graph, corpus)[0][0] == 1.0
    assert fsum(map(fsum, field_flow(graph, corpus))) == 1.0


def test_dangling_reference_counted_not_edged():
    corpus = corpus_of(rec(1, refs=(999,)))
    graph = build_graph(corpus)
    row = corpus.table.row
    assert graph.unresolved[row[1]] == 1
    assert graph.out_edges[row[1]] == ()
    assert graph.total_edges == 0


def test_out_edges_are_the_table_references_when_all_resolve():
    corpus = corpus_of(rec(1), rec(2, refs=(1,)), rec(3, refs=(1, 2)))
    table = corpus.table
    graph = build_graph(table)
    assert graph.out_edges is table.references
    assert table.ids == [1, 2, 3]  # rows 0, 1 and 2
    assert graph.in_edges == [(1, 2), (2,), ()]


def test_a_dangling_reference_is_dropped_by_the_table_and_counted_by_row():
    corpus = corpus_of(rec(1), rec(2, refs=(1, 99)), rec(3, refs=(1, 2)))
    table = corpus.table
    graph = build_graph(table)
    assert graph.out_edges is table.references
    assert table.ids == [1, 2, 3]  # rows 0, 1 and 2
    assert graph.out_edges == [(), (0,), (0, 1)]
    assert graph.unresolved is table.unresolved
    assert graph.unresolved == {1: 1}


def test_build_graph_holds_one_copy_of_the_in_edges():
    """The peak of ``build_graph`` stays under 1.5 times what its in-edges
    hold (the tuples and their list): the lists they are gathered in are
    replaced one by one, and the out-edges are the table's own list, also
    when some references dangle."""
    for dangling in (False, True):
        table = impact_table(dangling=dangling)
        tracemalloc.start()
        try:
            graph = build_graph(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(graph.unresolved) == dangling and graph.out_edges is table.references
        held = sys.getsizeof(graph.in_edges) + sum(map(sys.getsizeof, graph.in_edges))
        assert peak < 1.5 * held, peak / held


def test_golden_record_alone_fully_dangling(golden_text, taxonomy):
    corpus, _ = parse_corpus(golden_text, taxonomy)
    graph = build_graph(corpus)
    assert graph.unresolved[corpus.table.row[134672]] == 9
    assert graph.total_edges == 0
    assert fsum(map(fsum, field_flow(graph, corpus))) == 0.0


def test_handshake_and_reference_accounting():
    corpus = corpus_of(
        rec(1, refs=(2, 3, 999)),
        rec(2, refs=(3,)),
        rec(3),
    )
    graph = build_graph(corpus)
    out_total = sum(len(v) for v in graph.out_edges)
    in_total = sum(len(v) for v in graph.in_edges)
    assert out_total == in_total == graph.total_edges == 3
    refs_total = sum(len(corpus[p].references) for p in corpus)
    assert sum(graph.unresolved.values()) + graph.total_edges == refs_total


def test_adjacency_is_ascending():
    corpus = corpus_of(
        rec(1, refs=(4, 2, 3)),
        rec(2), rec(3), rec(4, refs=(3, 2)),
    )
    graph = build_graph(corpus)
    row = corpus.table.row
    assert graph.out_edges[row[1]] == (row[2], row[3], row[4])
    assert graph.in_edges[row[3]] == (row[1], row[4])


def paper_field_refs(graph, corpus, pid):
    """Per-field counts of one paper's resolved references, plus their number."""
    cited = graph.out_edges[corpus.table.row[pid]]
    return field_ref_counts(corpus, cited, graph.multiplicity), len(cited)


def test_per_paper_field_refs_single_field_targets():
    corpus = corpus_of(
        rec(1, fields=(0,), refs=(2, 3, 4, 5)),
        rec(2, fields=(1,)), rec(3, fields=(1,)),
        rec(4, fields=(2,)), rec(5, fields=(2,)),
    )
    graph = build_graph(corpus)
    counts, total = paper_field_refs(graph, corpus, 1)
    assert counts == {1: 2.0, 2: 2.0}
    assert total == 4


def test_per_paper_field_refs_multiplicity_rules():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(1, 2)))
    graph_full = build_graph(corpus, FULL_COUNT)
    counts, total = paper_field_refs(graph_full, corpus, 1)
    assert counts == {1: 1.0, 2: 1.0}
    assert total == 1
    assert sum(counts.values()) > total  # full-count over-counts by design
    graph_frac = build_graph(corpus, FRACTIONAL)
    counts, total = paper_field_refs(graph_frac, corpus, 1)
    assert counts == {1: 0.5, 2: 0.5}
    assert total == 1


def test_unknown_id_raises():
    corpus = corpus_of(rec(1))
    graph = build_graph(corpus)
    with pytest.raises(AnalysisError):
        rdi_paper(graph, corpus, 42)


def test_field_flow_matches_per_paper_sums_exactly():
    spec = GeneratorSpec(seed=11, field_count=5, years_span=8, multi_tag_probability=0.3)
    corpus = generate_corpus(spec)
    for rule in (FULL_COUNT, FRACTIONAL):
        graph = build_graph(corpus, rule)
        n = len(corpus.taxonomy)
        rebuilt = [[0.0] * n for _ in range(n)]
        for pid in corpus:
            counts, _total = paper_field_refs(graph, corpus, pid)
            for i in sorted(corpus[pid].fields):
                for j in sorted(counts):
                    rebuilt[i][j] += counts[j]
        assert rebuilt == field_flow(graph, corpus)


def test_graph_on_full_range_view_equals_base():
    # A window spanning every year selects the same flow as no window.
    corpus = generate_corpus(GeneratorSpec(seed=5, years_span=6))
    graph = build_graph(corpus)
    full = field_flow(graph, corpus, TimeWindow(1900, 2100))
    assert full == field_flow(graph, corpus)


def test_view_graph_keeps_cross_window_edges():
    # In-window papers count their references to papers before the window.
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(2,)),
        rec(2, year=1950, fields=(1,)),
        rec(3, year=2010, fields=(0,), refs=(2,)),
    )
    graph = build_graph(corpus)
    row = corpus.table.row
    assert graph.out_edges[row[1]] == (row[2],)
    assert graph.unresolved[row[1]] == 0
    flow = field_flow(graph, corpus, TimeWindow(1980, 2000))
    assert flow[0][1] == 1.0
    assert fsum(map(fsum, flow)) == 1.0  # paper 3 cites from after the window
    assert field_flow(graph, corpus)[0][1] == 2.0


_READ_A_GRAPH = {  # each analysis that reads a graph, called on (graph, corpus)
    "field_flow": field_flow,
    "citation_fraction_matrix": citation_fraction_matrix,
    "acp_bucket_test": lambda graph, corpus: acp_bucket_test(
        graph, corpus, 0, 1, TimeWindow(1970, 1979)),
    "rank_fields rdi": lambda graph, corpus: rank_fields(
        graph, corpus, "rdi", [TimeWindow(1970, 1979)]),
    "paper_diversity rdi": lambda graph, corpus: paper_diversity(graph, corpus, "rdi"),
    "rdi_paper": lambda graph, corpus: rdi_paper(graph, corpus, next(iter(corpus))),
    "compute_impact_scores": compute_impact_scores,
    "citations_received": lambda graph, corpus: citations_received(
        graph, corpus, next(iter(corpus))),
    "field_trajectory": lambda graph, corpus: field_trajectory(graph, corpus, 0),
    "evidence_series": evidence_series,
}


@pytest.mark.parametrize("analysis", _READ_A_GRAPH.values(), ids=_READ_A_GRAPH)
def test_an_analysis_refuses_a_graph_not_built_from_its_table(analysis):
    corpus, other = (generate_corpus(GeneratorSpec(
        seed=seed, field_count=4, years_span=10, papers_per_year=(8, 8))) for seed in (3, 4))
    assert len(corpus) == len(other)  # the same rows, other papers
    analysis(build_graph(corpus), corpus)  # its own graph is read
    for graph, cause in ((build_graph(other), "not built from this corpus"),
                         (None, "none was given")):
        with pytest.raises(ValueError, match=cause):
            analysis(graph, corpus)
