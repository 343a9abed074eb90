"""Directed citation graph with forward/inverted adjacency and field-level flow.

Construction is a single pass; the finished graph is immutable. Reference
ids that do not resolve against the corpus (papers outside the crawl) are
counted for each paper that has one and excluded from edges and from all
field-flow totals. ``field_flow`` folds the field-to-field flow on demand
into rows of Python floats: 24 x 24 is too small for numpy to win back its
import, about 0.12 s and 14 MiB a process. ``field_ref_counts`` is the one
place the multiplicity rule for multi-field cited papers is applied:

* ``full``        a reference to a k-field paper adds 1 to each of the k
                  fields (per-field counts can sum past the references);
* ``fractional``  each of the k fields gets 1/k.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .records import Corpus, PaperTable, TimeWindow
from .slotted import Slotted

FULL_COUNT = "full"
FRACTIONAL = "fractional"


class CitationGraph(Slotted):
    """``out_edges`` of every paper and ``in_edges`` of every cited paper,
    each an ascending id tuple; ``unresolved``, a ``Counter`` of the dangling
    references of the papers that have one (any other paper reads 0); and
    the ``multiplicity`` rule, ``FULL_COUNT`` or ``FRACTIONAL``."""

    __slots__ = ("out_edges", "in_edges", "unresolved", "multiplicity")

    @property
    def total_edges(self) -> int:
        return sum(len(v) for v in self.out_edges.values())


def field_ref_counts(
    corpus: Corpus | PaperTable, paper_ids: Iterable[int], multiplicity: str
) -> dict[int, float]:
    """Per-field counts of the given paper ids (those one paper cites) under
    the multiplicity rule; ids that do not resolve are skipped. Each field's
    accumulator is filled in the order of the ids, so the float sums of
    fractional mode are bit-identical across runs."""
    fields_of = corpus.table.fields
    counts: dict[int, float] = {}
    for rid in paper_ids:
        fields = fields_of.get(rid)
        if fields is None:
            continue
        inc = 1.0 if multiplicity == FULL_COUNT else 1.0 / len(fields)
        for f in fields:
            counts[f] = counts.get(f, 0.0) + inc
    return counts


def build_graph(corpus: Corpus | PaperTable, multiplicity: str = FULL_COUNT) -> CitationGraph:
    """Resolve reference ids into a citation graph over the corpus's papers.

    Both out- and in-edge lists ascend by id (the table's references ascend,
    and citing papers are visited in ascending id), and every edge endpoint
    is a corpus id, so analyses index the corpus's columns with it directly.
    When every reference resolves, ``out_edges`` is the table's own
    ``references`` dict, shared and not copied; otherwise it is a copy in
    which each paper with a dangling reference has its resolved ones, and
    the table's column is left as it is. Each in-edge list is replaced by
    its tuple in place, so no second dict of them is built.
    """
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")
    papers = corpus.table
    references = papers.references
    out_edges: dict[int, tuple[int, ...]] = references
    in_edges: dict = {}
    unresolved: Counter = Counter()

    known = papers.year.__contains__
    for pid, refs in references.items():
        if not all(map(known, refs)):
            if out_edges is references:
                out_edges = dict(references)
            resolved = tuple(filter(known, refs))
            unresolved[pid] = len(refs) - len(resolved)
            out_edges[pid] = refs = resolved
        for rid in refs:
            in_edges.setdefault(rid, []).append(pid)

    for pid, citers in in_edges.items():
        in_edges[pid] = tuple(citers)
    return CitationGraph(out_edges, in_edges, unresolved, multiplicity)


def field_flow(
    graph: CitationGraph, corpus: Corpus | PaperTable, window: TimeWindow | None = None
) -> list[list[float]]:
    """Field-to-field resolved reference counts under the graph's multiplicity rule.

    One row per taxonomy field: flow[i][j] sums, over the citing papers in
    field i (published inside the window, if given), their per-field
    reference counts into field j, citing ids and fields ascending.
    """
    papers = corpus.table
    n = len(papers.taxonomy)
    flow = [[0.0] * n for _ in range(n)]
    for pid in papers.papers_in(window=window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(papers, cited, graph.multiplicity)
        for i in sorted(papers.fields[pid]):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    return flow
