"""Citation graph: resolution, adjacency invariants, field counts and flow."""

import numpy as np
import pytest

from citefields import (
    AnalysisError, FRACTIONAL, FULL_COUNT, GeneratorSpec, TimeWindow,
    build_graph, field_flow, generate_corpus, parse_corpus, rdi_paper,
)
from citefields.graph import field_ref_counts
from conftest import GOLDEN_RECORD, corpus_of, rec
from oracles import field_counts_direct


def test_single_edge_same_field():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    graph = build_graph(corpus)
    assert graph.out_edges[1] == (2,)
    assert graph.in_edges[2] == (1,)
    assert field_flow(graph, corpus)[0, 0] == 1.0
    assert field_flow(graph, corpus).sum() == 1.0


def test_dangling_reference_counted_not_edged():
    corpus = corpus_of(rec(1, refs=(999,)))
    graph = build_graph(corpus)
    assert graph.unresolved[1] == 1
    assert graph.out_edges[1] == ()
    assert graph.total_edges == 0


def test_golden_record_alone_fully_dangling(golden_text, taxonomy):
    corpus, _ = parse_corpus(golden_text, taxonomy)
    graph = build_graph(corpus)
    assert graph.unresolved[134672] == 9
    assert graph.total_edges == 0
    assert field_flow(graph, corpus).sum() == 0.0


def test_handshake_and_reference_accounting():
    corpus = corpus_of(
        rec(1, refs=(2, 3, 999)),
        rec(2, refs=(3,)),
        rec(3),
    )
    graph = build_graph(corpus)
    out_total = sum(len(v) for v in graph.out_edges.values())
    in_total = sum(len(v) for v in graph.in_edges.values())
    assert out_total == in_total == graph.total_edges == 3
    refs_total = sum(len(corpus[p].references) for p in corpus)
    assert sum(graph.unresolved.values()) + graph.total_edges == refs_total


def test_adjacency_is_ascending():
    corpus = corpus_of(
        rec(1, refs=(4, 2, 3)),
        rec(2), rec(3), rec(4, refs=(3, 2)),
    )
    graph = build_graph(corpus)
    assert graph.out_edges[1] == (2, 3, 4)
    assert graph.in_edges[3] == (1, 4)


def paper_field_refs(graph, corpus, pid):
    """Per-field counts of one paper's resolved references, plus their number."""
    cited = graph.out_edges[pid]
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
        rebuilt = np.zeros((n, n))
        for pid in corpus:
            counts, _total = paper_field_refs(graph, corpus, pid)
            for i in sorted(corpus[pid].fields):
                for j in sorted(counts):
                    rebuilt[i, j] += counts[j]
        assert np.array_equal(rebuilt, field_flow(graph, corpus))


def test_graph_on_full_range_view_equals_base():
    # A window spanning every year selects the same flow as no window.
    corpus = generate_corpus(GeneratorSpec(seed=5, years_span=6))
    graph = build_graph(corpus)
    full = field_flow(graph, corpus, TimeWindow(1900, 2100))
    assert np.array_equal(full, field_flow(graph, corpus))


def test_view_graph_keeps_cross_window_edges():
    # In-window papers count their references to papers before the window.
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(2,)),
        rec(2, year=1950, fields=(1,)),
        rec(3, year=2010, fields=(0,), refs=(2,)),
    )
    graph = build_graph(corpus)
    assert graph.out_edges[1] == (2,)
    assert graph.unresolved[1] == 0
    flow = field_flow(graph, corpus, TimeWindow(1980, 2000))
    assert flow[0, 1] == 1.0
    assert flow.sum() == 1.0  # paper 3 cites from after the window
    assert field_flow(graph, corpus)[0, 1] == 2.0
