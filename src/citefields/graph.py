"""Directed citation graph with forward/inverted adjacency and field-level flow.

Construction is a single pass; the finished graph is immutable and safe for
any number of concurrent readers. Reference ids that do not resolve against
the corpus (papers outside the crawl) are counted per paper and excluded
from edges and from all field-flow totals.

``build_graph`` only resolves adjacency. The field-to-field flow matrix is
folded on demand by ``field_flow(graph, corpus, window)``, and every
per-field count of a set of papers goes through ``field_ref_counts``, the
one place the multiplicity rule is applied.

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

import numpy as np

from .errors import AnalysisError
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

    The ids are usually cited papers, but any sequence works (partner
    rankings pass citing papers). Ids that do not resolve are skipped.
    Accumulation order is fixed (ids as given, fields ascending) so
    repeated runs are bit-identical even in fractional mode.
    """
    counts: dict[int, float] = {}
    for rid in paper_ids:
        rec = corpus.records.get(rid)
        if rec is None:
            continue
        fields = sorted(rec.fields)
        inc = 1.0 if multiplicity == FULL_COUNT else 1.0 / len(fields)
        for f in fields:
            counts[f] = counts.get(f, 0.0) + inc
    return counts


def build_graph(corpus: Corpus, multiplicity: str = FULL_COUNT) -> CitationGraph:
    """Resolve reference ids into a citation graph over the corpus's papers.

    Adjacency is deterministic: both out- and in-edge lists are ascending by
    id. Every edge endpoint is a corpus id, so analyses index the corpus
    with it directly.
    """
    if multiplicity not in (FULL_COUNT, FRACTIONAL):
        raise ValueError(f"unknown multiplicity rule {multiplicity!r}")
    out_edges: dict[int, tuple[int, ...]] = {}
    in_lists: dict[int, list[int]] = {}
    unresolved: dict[int, int] = {}

    for pid in corpus:
        rec = corpus[pid]
        resolved: list[int] = []
        dangling = 0
        for rid in rec.references:
            if rid in corpus:
                resolved.append(rid)
            else:
                dangling += 1
        resolved.sort()
        out_edges[pid] = tuple(resolved)
        unresolved[pid] = dangling
        for rid in resolved:
            in_lists.setdefault(rid, []).append(pid)

    in_edges = {pid: tuple(sorted(citers)) for pid, citers in sorted(in_lists.items())}
    graph = CitationGraph(out_edges, in_edges, unresolved, multiplicity)
    logger.debug(
        "build_graph: %d papers, %d edges, %d dangling",
        len(out_edges), graph.total_edges, sum(unresolved.values()),
    )
    return graph


def field_flow(
    graph: CitationGraph, corpus: Corpus, window: TimeWindow | None = None
) -> np.ndarray:
    """Field-to-field resolved reference counts under the graph's multiplicity rule.

    flow[i, j] sums, over the citing papers in field i (published inside
    the window, if one is given), their per-field reference counts into
    field j. Citing ids ascend and fields ascend, so the float sums are
    bit-identical across runs.
    """
    n = len(corpus.taxonomy)
    flow = np.zeros((n, n), dtype=np.float64)
    for pid in corpus.papers_in(window=window):
        cited = graph.out_edges.get(pid, ())
        if not cited:
            continue
        counts = field_ref_counts(corpus, cited, graph.multiplicity)
        for i in sorted(corpus[pid].fields):
            for j in sorted(counts):
                flow[i, j] += counts[j]
    return flow


def per_paper_field_refs(
    graph: CitationGraph, corpus: Corpus, pid: int
) -> tuple[dict[int, float], int]:
    """Per-field resolved reference counts of one paper, plus its resolved total.

    Only fields with nonzero counts appear; counts follow the graph's
    multiplicity rule.
    """
    if pid not in corpus:
        raise AnalysisError(f"unknown paper id {pid}")
    cited = graph.out_edges.get(pid, ())
    return field_ref_counts(corpus, cited, graph.multiplicity), len(cited)


def citations_received(
    graph: CitationGraph,
    corpus: Corpus,
    pid: int,
    horizon_years: int | None = None,
    exclude_first_author_self: bool = False,
) -> tuple[int, ...]:
    """Citing ids of a paper, optionally horizon-limited and self-filtered.

    A horizon of h keeps citing papers published in the publication year or
    the h-1 following years. The self filter drops citers whose first author
    equals the cited paper's first author (trimmed, case-insensitive).
    """
    rec = corpus.records.get(pid)
    if rec is None:
        raise AnalysisError(f"unknown paper id {pid}")
    citers = graph.in_edges.get(pid, ())
    if horizon_years is not None:
        citers = tuple(
            q for q in citers
            if 0 <= corpus[q].year - rec.year <= horizon_years - 1
        )
    if exclude_first_author_self:
        key = rec.first_author_key()
        if key is not None:
            citers = tuple(
                q for q in citers if corpus[q].first_author_key() != key
            )
    return citers

