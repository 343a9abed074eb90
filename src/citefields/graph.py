"""Directed citation graph with forward/inverted adjacency and field-level flow.

The graph is over the table's rows: its out-edges are the references the
table resolved, and one pass inverts them; the finished graph is
immutable. Reference ids that do not resolve against the corpus (papers
outside the crawl) are counted for each paper that has one and excluded
from edges and from all field-flow totals. An analysis refuses a graph
built from another table. ``field_flow`` folds the field-to-field flow on
demand into rows of Python floats: 24 x 24 is too small for numpy to win
back its import, about 0.12 s and 14 MiB a process. ``field_ref_counts``
is the one place the multiplicity rule for multi-field cited papers is
applied:

* ``full``        a reference to a k-field paper adds 1 to each of the k
                  fields (per-field counts can sum past the references);
* ``fractional``  each of the k fields gets 1/k.
"""

from __future__ import annotations

from typing import Iterable

from .records import Corpus, PaperTable, TimeWindow
from .slotted import Slotted

FULL_COUNT = "full"
FRACTIONAL = "fractional"


class CitationGraph(Slotted):
    """``out_edges`` (the table's ``references``) and ``in_edges``, lists by
    row of the ascending rows a paper cites and of those citing it;
    ``unresolved``, the table's ``Counter`` of dangling references by row
    (0 for a row with none); and the ``multiplicity`` rule."""

    __slots__ = ("out_edges", "in_edges", "unresolved", "multiplicity")

    @property
    def total_edges(self) -> int:
        return sum(map(len, self.out_edges))


def _table_of(graph: CitationGraph | None, corpus: Corpus | PaperTable) -> PaperTable:
    """``corpus.table``, once ``graph`` is known to be built from it: a
    graph's rows mean nothing against another table."""
    papers = corpus.table
    if graph is None:
        raise ValueError("this analysis reads a citation graph, and none was given")
    if graph.out_edges is not papers.references:
        raise ValueError("the citation graph was not built from this corpus's table")
    return papers


def field_ref_counts(
    corpus: Corpus | PaperTable, rows: Iterable[int], multiplicity: str
) -> dict[int, float]:
    """Per-field counts of the given table rows (those one paper cites)
    under the multiplicity rule. Each field's accumulator is filled in the
    order of the rows, so the float sums of fractional mode are
    bit-identical across runs."""
    fields_of = corpus.table.fields
    counts: dict[int, float] = {}
    for r in rows:
        fields = fields_of[r]
        inc = 1.0 if multiplicity == FULL_COUNT else 1.0 / len(fields)
        for f in fields:
            counts[f] = counts.get(f, 0.0) + inc
    return counts


def build_graph(corpus: Corpus | PaperTable, multiplicity: str = FULL_COUNT) -> CitationGraph:
    """The citation graph of the table's resolved references.

    ``out_edges`` is the table's own ``references`` list, shared and not
    copied, and ``unresolved`` its ``Counter``. ``in_edges`` inverts them:
    citing rows are visited in ascending order, so each in-edge tuple
    ascends, and each row's list is replaced by its tuple in place.
    """
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")
    papers = corpus.table
    out_edges = papers.references
    in_edges: list = [[] for _ in out_edges]
    for r, cited in zip(papers.row.values(), out_edges):  # the row dict's own ints
        for c in cited:
            in_edges[c].append(r)
    for r, citers in enumerate(in_edges):
        in_edges[r] = tuple(citers)
    return CitationGraph(out_edges, in_edges, papers.unresolved, multiplicity)


def field_flow(
    graph: CitationGraph, corpus: Corpus | PaperTable, window: TimeWindow | None = None
) -> list[list[float]]:
    """Field-to-field resolved reference counts under the graph's multiplicity rule.

    One row per taxonomy field: flow[i][j] sums, over the citing papers in
    field i (published inside the window, if given), their per-field
    reference counts into field j, citing rows and fields ascending.
    """
    papers = _table_of(graph, corpus)
    n = len(papers.taxonomy)
    flow = [[0.0] * n for _ in range(n)]
    for r in papers.papers_in(window=window):
        cited = graph.out_edges[r]
        if not cited:
            continue
        counts = field_ref_counts(papers, cited, graph.multiplicity)
        for i in sorted(papers.fields[r]):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    return flow
