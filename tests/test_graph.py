"""Citation graph: resolution, adjacency invariants, field counts and flow,
the multiplicity rule, and the refusal of a table without a column a
kernel reads."""

import re
import sys
import tracemalloc
from math import fsum

import pytest

from citefields import (
    AnalysisError, FRACTIONAL, FULL_COUNT, GeneratorSpec, PaperTable, TimeWindow,
    acp_bucket_test, build_graph, build_keyword_sets, citation_fraction_matrix,
    compute_impact_scores, evidence_series, field_flow, field_trajectory, generate,
    generate_corpus, paper_diversity, parse_corpus, rank_fields,
)
from citefields.diversity import kdi_paper, rdi_paper
from citefields.graph import field_ref_counts
from citefields.impact import citations_received
from conftest import corpus_of, impact_table, rec


def test_single_edge_same_field():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    table = build_graph(corpus)
    row = table.row
    assert table.references[row[1]] == (row[2],)
    assert table.in_edges[row[2]] == (row[1],)
    assert field_flow(corpus)[0][0] == 1.0
    assert fsum(map(fsum, field_flow(corpus))) == 1.0


def test_dangling_reference_counted_not_edged():
    corpus = corpus_of(rec(1, refs=(999,)))
    table = build_graph(corpus)
    row = table.row
    assert table.unresolved[row[1]] == 1
    assert table.references[row[1]] == ()
    assert table.total_edges == 0


def test_out_edges_are_the_table_references_when_all_resolve():
    corpus = corpus_of(rec(1), rec(2, refs=(1,)), rec(3, refs=(1, 2)))
    table = corpus.table
    assert build_graph(table) is table
    assert table.ids == [1, 2, 3]  # rows 0, 1 and 2
    assert table.references == [(), (0,), (0, 1)]
    assert table.in_edges == [(1, 2), (2,), ()]


def test_build_graph_returns_the_table_and_fills_its_in_edges_once():
    corpus = corpus_of(rec(1), rec(2, refs=(1,)), rec(3, refs=(1, 2)))
    table = corpus.table
    assert table.in_edges is None
    assert build_graph(corpus) is table
    in_edges = table.in_edges
    assert build_graph(corpus) is table and build_graph(table) is table
    assert table.in_edges is in_edges


def test_a_dangling_reference_is_dropped_by_the_table_and_counted_by_row():
    corpus = corpus_of(rec(1), rec(2, refs=(1, 99)), rec(3, refs=(1, 2)))
    table = corpus.table
    assert build_graph(table) is table
    assert table.ids == [1, 2, 3]  # rows 0, 1 and 2
    assert table.references == [(), (0,), (0, 1)]
    assert table.unresolved == {1: 1}


def test_build_graph_holds_one_copy_of_the_in_edges():
    """The peak of ``build_graph`` stays under 1.5 times what its in-edges
    hold (the tuples and their list): the lists they are gathered in are
    replaced one by one, and the out-edges are the table's own list, also
    when some references dangle."""
    for dangling in (False, True):
        table = impact_table(dangling=dangling)
        references = table.references
        tracemalloc.start()
        try:
            build_graph(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(table.unresolved) == dangling and table.references is references
        held = sys.getsizeof(table.in_edges) + sum(map(sys.getsizeof, table.in_edges))
        assert peak < 1.5 * held, peak / held


def test_golden_record_alone_fully_dangling(golden_text, taxonomy):
    corpus, _ = parse_corpus(golden_text, taxonomy)
    table = build_graph(corpus)
    assert table.unresolved[table.row[134672]] == 9
    assert table.total_edges == 0
    assert fsum(map(fsum, field_flow(corpus))) == 0.0


def test_handshake_and_reference_accounting():
    corpus = corpus_of(
        rec(1, refs=(2, 3, 999)),
        rec(2, refs=(3,)),
        rec(3),
    )
    table = build_graph(corpus)
    out_total = sum(len(v) for v in table.references)
    in_total = sum(len(v) for v in table.in_edges)
    assert out_total == in_total == table.total_edges == 3
    refs_total = sum(len(corpus[p].references) for p in corpus)
    assert sum(table.unresolved.values()) + table.total_edges == refs_total


def test_adjacency_is_ascending():
    corpus = corpus_of(
        rec(1, refs=(4, 2, 3)),
        rec(2), rec(3), rec(4, refs=(3, 2)),
    )
    table = build_graph(corpus)
    row = table.row
    assert table.references[row[1]] == (row[2], row[3], row[4])
    assert table.in_edges[row[3]] == (row[1], row[4])


def paper_field_refs(corpus, pid, multiplicity=FULL_COUNT):
    """Per-field counts of one paper's resolved references, plus their number."""
    cited = corpus.table.references[corpus.table.row[pid]]
    return field_ref_counts(corpus, cited, multiplicity), len(cited)


def test_per_paper_field_refs_single_field_targets():
    corpus = corpus_of(
        rec(1, fields=(0,), refs=(2, 3, 4, 5)),
        rec(2, fields=(1,)), rec(3, fields=(1,)),
        rec(4, fields=(2,)), rec(5, fields=(2,)),
    )
    counts, total = paper_field_refs(corpus, 1)
    assert counts == {1: 2.0, 2: 2.0}
    assert total == 4


def test_per_paper_field_refs_multiplicity_rules():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(1, 2)))
    counts, total = paper_field_refs(corpus, 1, FULL_COUNT)
    assert counts == {1: 1.0, 2: 1.0}
    assert total == 1
    assert sum(counts.values()) > total  # full-count over-counts by design
    counts, total = paper_field_refs(corpus, 1, FRACTIONAL)
    assert counts == {1: 0.5, 2: 0.5}
    assert total == 1


def test_unknown_id_raises():
    corpus = corpus_of(rec(1))
    with pytest.raises(AnalysisError):
        rdi_paper(corpus, 42)


def test_field_flow_matches_per_paper_sums_exactly():
    spec = GeneratorSpec(seed=11, field_count=5, years_span=8, multi_tag_probability=0.3)
    corpus = generate_corpus(spec)
    for rule in (FULL_COUNT, FRACTIONAL):
        n = len(corpus.taxonomy)
        rebuilt = [[0.0] * n for _ in range(n)]
        for pid in corpus:
            counts, _total = paper_field_refs(corpus, pid, rule)
            for i in sorted(corpus[pid].fields):
                for j in sorted(counts):
                    rebuilt[i][j] += counts[j]
        assert rebuilt == field_flow(corpus, multiplicity=rule)


def test_graph_on_full_range_view_equals_base():
    # A window spanning every year selects the same flow as no window.
    corpus = generate_corpus(GeneratorSpec(seed=5, years_span=6))
    full = field_flow(corpus, TimeWindow(1900, 2100))
    assert full == field_flow(corpus)


def test_view_graph_keeps_cross_window_edges():
    # In-window papers count their references to papers before the window.
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(2,)),
        rec(2, year=1950, fields=(1,)),
        rec(3, year=2010, fields=(0,), refs=(2,)),
    )
    table = build_graph(corpus)
    row = table.row
    assert table.references[row[1]] == (row[2],)
    assert table.unresolved[row[1]] == 0
    flow = field_flow(corpus, TimeWindow(1980, 2000))
    assert flow[0][1] == 1.0
    assert fsum(map(fsum, flow)) == 1.0  # paper 3 cites from after the window
    assert field_flow(corpus)[0][1] == 2.0


# Each function that counts references per field, called with a multiplicity
# rule over the papers of 1970-1971, none of which cites.
WINDOW = TimeWindow(1970, 1971)
_COUNT_PER_FIELD = {
    "field_flow": lambda corpus, rule: field_flow(corpus, WINDOW, rule),
    "citation_fraction_matrix": lambda corpus, rule: citation_fraction_matrix(
        corpus, WINDOW, rule),
    "acp_bucket_test": lambda corpus, rule: acp_bucket_test(
        corpus, 0, 1, WINDOW, multiplicity=rule),
    "rdi_paper": lambda corpus, rule: rdi_paper(corpus, 1, rule),
    "paper_diversity rdi": lambda corpus, rule: paper_diversity(
        corpus, "rdi", WINDOW, multiplicity=rule),
    "paper_diversity kdi": lambda corpus, rule: paper_diversity(
        corpus, "kdi", WINDOW, multiplicity=rule),
    "rank_fields rdi": lambda corpus, rule: rank_fields(
        corpus, "rdi", [WINDOW], multiplicity=rule),
    "rank_fields kdi": lambda corpus, rule: rank_fields(
        corpus, "kdi", [WINDOW], multiplicity=rule),
}


@pytest.mark.parametrize("count", _COUNT_PER_FIELD.values(), ids=_COUNT_PER_FIELD)
def test_per_field_counts_refuse_an_unknown_multiplicity(count):
    corpus = corpus_of(rec(1, year=1970, fields=(0,)), rec(2, year=1971, fields=(0, 1)),
                       rec(3, year=1980, fields=(1,), refs=(1, 2)))
    build_graph(corpus)
    for rule in (FULL_COUNT, FRACTIONAL):  # a known rule passes the check
        try:
            count(corpus, rule)
        except AnalysisError as exc:  # acp, after the check: no focal paper cites
            assert "no focal papers with resolved references" in str(exc)
    for rule in ("Full", "thirds", ""):
        with pytest.raises(ValueError, match=f"unknown multiplicity rule {rule!r}"):
            count(corpus, rule)


# Each kernel, called on a table, and the columns (or the in-edges) it reads
# beyond the year and the fields every table holds.
_KERNELS = {
    "build_graph": (build_graph, ("references",)),
    "field_flow": (field_flow, ("references",)),
    "citation_fraction_matrix": (citation_fraction_matrix, ("references",)),
    "acp_bucket_test": (lambda table: acp_bucket_test(table, 0, 1, TimeWindow(1970, 1979)),
                        ("references", "in_edges")),
    "rdi_paper": (lambda table: rdi_paper(table, table.ids[0]), ("references",)),
    "paper_diversity rdi": (lambda table: paper_diversity(table, "rdi"), ("references",)),
    "rank_fields rdi": (lambda table: rank_fields(table, "rdi", [TimeWindow(1970, 1979)]),
                        ("references",)),
    "kdi_paper": (lambda table: kdi_paper(table, (frozenset("x"),) * len(table.taxonomy),
                                          table.ids[0]), ("keywords",)),
    "build_keyword_sets": (build_keyword_sets, ("keywords",)),
    "paper_diversity kdi": (lambda table: paper_diversity(table, "kdi"), ("keywords",)),
    "rank_fields kdi": (lambda table: rank_fields(table, "kdi", [TimeWindow(1970, 1979)]),
                        ("keywords",)),
    "compute_impact_scores": (compute_impact_scores, ("venue", "first_author", "in_edges")),
    "citations_received": (lambda table: citations_received(table, table.ids[0]),
                           ("first_author", "in_edges")),
    "field_trajectory": (lambda table: field_trajectory(table, 0), ("references", "in_edges")),
    "evidence_series": (evidence_series, ("authors", "references")),
}
_MISSING = [(kernel, column) for kernel, (_call, columns) in _KERNELS.items()
            for column in columns]


@pytest.mark.parametrize("kernel, column", _MISSING, ids=[f"{k}-{c}" for k, c in _MISSING])
def test_kernel_refuses_a_table_lacking_a_column(kernel, column):
    """A table built without the column, or whose in-edges ``build_graph``
    never filled, is refused with a ``ValueError`` naming it; the same call
    on the whole table, its graph built, runs."""
    call, _columns = _KERNELS[kernel]
    text = generate(GeneratorSpec(seed=3, field_count=4, years_span=10, papers_per_year=(8, 8)))
    whole = build_graph(parse_corpus(text, into=PaperTable.reader(*PaperTable.COLUMNS))[0])
    call(whole)
    table = parse_corpus(text, into=PaperTable.reader(
        *(name for name in PaperTable.COLUMNS if name != column)))[0]
    if column != "in_edges" and table.references is not None:
        build_graph(table)
    message = f"the table lacks '{column}', which this analysis reads" + (
        ": call build_graph on it first" if column == "in_edges" else "")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(table)
