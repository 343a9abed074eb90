"""The citation graph of a table's rows, and field-level flow.

The graph is the table: its out-edges are the ``references`` the table
resolved, a reference to no paper of the corpus is counted in its
``unresolved`` and left out of edges and field flow, and ``build_graph``
inverts the out-edges once into its ``in_edges``. ``field_flow`` folds the
field-to-field flow on demand into rows of Python floats: 24 x 24 is too
small for numpy to win back its import, about 0.12 s and 14 MiB a process.
The functions that count references per field take the multiplicity rule
for multi-field cited papers as an argument; ``field_ref_counts`` is the
one place it is applied:

* ``full``        a reference to a k-field paper adds 1 to each of the k
                  fields (per-field counts can sum past the references);
* ``fractional``  each of the k fields gets 1/k.
"""

from __future__ import annotations

from typing import Iterable

from .records import Corpus, PaperTable, TimeWindow

FULL_COUNT = "full"
FRACTIONAL = "fractional"


def check_multiplicity(multiplicity: str) -> None:
    """Refuse a multiplicity rule that is neither ``full`` nor ``fractional``."""
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")


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


def build_graph(corpus: Corpus | PaperTable) -> PaperTable:
    """``corpus.table``, with its ``in_edges`` inverted from its resolved
    ``references`` on the first call; a later call returns it at once.

    Citing rows are visited in ascending order, so each in-edge tuple
    ascends, and each row's list is replaced by its tuple in place. The
    table takes the finished list, so no reader sees a part of it.
    """
    papers = corpus.table.require("references")
    if papers.in_edges is None:
        in_edges: list = [[] for _ in papers.references]
        for r, cited in zip(papers.row.values(), papers.references):  # the row dict's own ints
            for c in cited:
                in_edges[c].append(r)
        for r, citers in enumerate(in_edges):
            in_edges[r] = tuple(citers)
        papers.in_edges = in_edges
    return papers


def field_flow(corpus: Corpus | PaperTable, window: TimeWindow | None = None,
               multiplicity: str = FULL_COUNT) -> list[list[float]]:
    """Field-to-field resolved reference counts under the multiplicity rule.

    One row per taxonomy field: flow[i][j] sums, over the citing papers in
    field i (published inside the window, if given), their per-field
    reference counts into field j, citing rows and fields ascending.
    """
    check_multiplicity(multiplicity)
    papers = corpus.table.require("references")
    n = len(papers.taxonomy)
    flow = [[0.0] * n for _ in range(n)]
    for r in papers.papers_in(window=window):
        cited = papers.references[r]
        if not cited:
            continue
        counts = field_ref_counts(papers, cited, multiplicity)
        for i in sorted(papers.fields[r]):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    return flow
