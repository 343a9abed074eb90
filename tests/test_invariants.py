"""Cross-module invariants that hold over whole analyses."""

import math
from math import fsum

import numpy as np
import pytest

from citefields import (
    GeneratorSpec, TimeWindow,
    acp_bucket_test, build_graph, build_keyword_sets, citation_fraction_matrix,
    compute_impact_scores, evidence_series, field_flow, generate_corpus, paper_diversity,
    field_trajectory, propensity_identity, propensity_uniform, rank_fields,
)
from citefields.diversity import rdi_paper

FULL_RANGE = TimeWindow(1900, 2100)


@pytest.fixture(scope="module")
def synth():
    spec = GeneratorSpec(seed=61, field_count=5, start_year=1980, years_span=12,
                         papers_per_year=(10, 16), multi_tag_probability=0.2)
    corpus = generate_corpus(spec)
    return corpus, build_graph(corpus)


def test_full_range_view_matches_corpus_on_every_metric(synth):
    # A window or year span covering the whole corpus equals no window.
    corpus, graph = synth
    sets = build_keyword_sets(corpus)
    sets_full = build_keyword_sets(corpus, FULL_RANGE)
    assert sets_full == sets

    ids = corpus.papers_in()
    for metric in ("rdi", "kdi"):
        scores = paper_diversity(graph, corpus, metric)
        assert paper_diversity(graph, corpus, metric, FULL_RANGE) == scores
        assert len(scores) == len(ids)
        members = [[v for pid, v in zip(ids, scores) if v is not None and f in corpus[pid].fields]
                   for f in range(5)]
        rows = rank_fields(graph, corpus, metric, [FULL_RANGE]).rows
        assert [(row[4], row[5]) for row in rows[:5]] == [
            (fsum(vs) / len(vs), len(vs)) for vs in members
        ]

    assert np.array_equal(
        citation_fraction_matrix(graph, corpus, FULL_RANGE),
        citation_fraction_matrix(graph, corpus),
        equal_nan=True,
    )

    years = sorted(set(corpus.table.year))
    span = TimeWindow(years[0], years[-1])
    r1 = acp_bucket_test(graph, corpus, 0, 1, FULL_RANGE)
    r2 = acp_bucket_test(graph, corpus, 0, 1, span)
    assert r1.rows == r2.rows

    default = field_trajectory(graph, corpus, 0)
    wide = field_trajectory(graph, corpus, 0, list(range(FULL_RANGE.start, FULL_RANGE.end + 1)))
    shared = slice(wide.years.index(default.years[0]), wide.years.index(default.years[-1]) + 1)
    assert (wide.tau[shared], wide.zeta[shared]) == (default.tau, default.zeta)
    assert evidence_series(graph, corpus, years).rows == evidence_series(graph, corpus).rows

    s1 = compute_impact_scores(graph, corpus, window=FULL_RANGE)
    s2 = compute_impact_scores(graph, corpus)
    assert (s1.ids, s1.cp, s1.jif, s1.cutoff) == (s2.ids, s2.cp, s2.jif, s2.cutoff)


def test_rdi_bounded_by_log_field_count_with_single_field_targets():
    # All cited papers single-field: the reference fractions form a proper
    # distribution, so the entropy is at most ln(field count).
    spec = GeneratorSpec(seed=62, field_count=6, years_span=10,
                         multi_tag_probability=0.0, references=(1, 12))
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    bound = math.log(len(corpus.taxonomy))
    for pid in corpus:
        v = rdi_paper(graph, corpus, pid)
        if v is not None:
            assert 0.0 <= v <= bound + 1e-12


def test_evidence_pooled_tau_matches_brute_force(synth):
    corpus, graph = synth
    report = evidence_series(graph, corpus)
    for row in report.rows:
        year, tau = row[0], row[4]
        cross = same = 0
        for pid in corpus:
            p = corpus[pid]
            if p.year != year:
                continue
            for rid in p.references:
                cited = corpus.records.get(rid)
                if cited is None:
                    continue
                if cited.fields & p.fields:
                    same += 1
                else:
                    cross += 1
        if same == 0:
            assert tau is None
        else:
            assert tau == pytest.approx(cross / same, rel=1e-12)


def test_rank_planted_cross_field_beats_in_field():
    # Field 0 cites uniformly across fields; all others cite in-field only.
    k = 4
    rows = propensity_identity(k)
    rows[0] = propensity_uniform(k)[0]
    spec = GeneratorSpec(
        seed=63, field_count=k, years_span=10, papers_per_year=(12, 16),
        references=(4, 8),
        propensity=tuple(tuple(r) for r in rows),
        multi_tag_probability=0.0,
    )
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [FULL_RANGE])
    by_abbr = {row[2]: row for row in report.rows}
    assert by_abbr["AI"][7] == 1
    for abbr in ("Algo", "NETW", "DB"):
        assert by_abbr[abbr][4] < by_abbr["AI"][4]


def test_permuting_input_order_changes_no_metric():
    spec = GeneratorSpec(seed=64, field_count=4, years_span=8)
    corpus = generate_corpus(spec)
    from citefields import parse_corpus, serialize_record

    blocks = [serialize_record(corpus[pid], corpus.taxonomy) for pid in corpus]
    shuffled, _ = parse_corpus("\n".join(reversed(blocks)), corpus.taxonomy)
    assert shuffled == corpus
    g1, g2 = build_graph(corpus), build_graph(shuffled)
    assert corpus.table.ids == shuffled.table.ids  # so the rows are the same papers
    assert g1.out_edges == g2.out_edges
    assert np.array_equal(field_flow(g1, corpus), field_flow(g2, shuffled))
    assert rank_fields(g1, corpus, "rdi", [FULL_RANGE]).rows == \
        rank_fields(g2, shuffled, "rdi", [FULL_RANGE]).rows
