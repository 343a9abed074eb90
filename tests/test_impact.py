"""Impact indicators: the cp citation rule, jif formula, top-cited ties, bucket analysis."""

import argparse
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from citefields import (
    AnalysisError, GeneratorSpec, TimeWindow,
    author_key, bucket_impact, build_graph, compute_impact_scores, generate_corpus, top_cited_counts,
)
from citefields.cli import _run_impact
from citefields.diversity import rdi_paper
from citefields.impact import _jif_lookup, bucket_assignment, citations_received
from conftest import corpus_of, impact_table, rec
from oracles import citations_direct, cp_direct, jif_direct


def test_cp_no_citations_is_zero():
    corpus = corpus_of(rec(1, year=2000))
    build_graph(corpus)
    assert len(citations_received(corpus, 1)) == 0


def test_cp_excludes_first_author_and_horizon():
    corpus = corpus_of(
        rec(1, year=2000, authors=("A. Smith",)),
        rec(2, year=2001, refs=(1,), authors=("A. Smith",)),   # self, excluded
        rec(3, year=2003, refs=(1,), authors=("B. Jones",)),   # counted
        rec(4, year=2004, refs=(1,), authors=("C. Brown",)),   # counted, boundary year
        rec(5, year=2005, refs=(1,), authors=("D. White",)),   # outside horizon
    )
    build_graph(corpus)
    assert len(citations_received(corpus, 1)) == 2
    assert len(citations_received(corpus, 1, horizon=None)) == 3


def test_cp_monotone_in_horizon():
    corpus = generate_corpus(GeneratorSpec(seed=21, years_span=8))
    build_graph(corpus)
    for pid in corpus:
        values = [len(citations_received(corpus, pid, horizon=h))
                  for h in (1, 3, 5, 8, None)]
        assert values == sorted(values)


def test_cp_matches_brute_force():
    corpus = generate_corpus(GeneratorSpec(seed=4, years_span=9, papers_per_year=(6, 14)))
    build_graph(corpus)
    for pid in corpus:
        assert len(citations_received(corpus, pid)) == cp_direct(corpus, pid)


@pytest.mark.parametrize("horizon", [0, -1])
def test_horizon_below_one_is_refused(horizon):
    # A horizon of no year counts no citation, so every paper would reach
    # the cutoff of 0 and be flagged top-cited.
    corpus = corpus_of(rec(1, year=2000), rec(2, year=2000, refs=(1,), authors=("B. Jones",)))
    build_graph(corpus)
    with pytest.raises(ValueError, match=f"horizon must be at least 1 .*got {horizon}"):
        citations_received(corpus, 1, horizon=horizon)
    with pytest.raises(ValueError, match=f"horizon must be at least 1 .*got {horizon}"):
        compute_impact_scores(corpus, horizon=horizon)


def test_citations_received_unknown_id_raises():
    corpus = corpus_of(rec(1))
    with pytest.raises(AnalysisError):
        citations_received(build_graph(corpus), 42)


def test_citations_received_horizon_boundaries():
    corpus = corpus_of(
        rec(1, year=2000, authors=("A. Smith",)),
        rec(2, year=2004, refs=(1,), authors=("B. Jones",)),
        rec(3, year=2005, refs=(1,), authors=("C. Brown",)),
        rec(4, year=1999, refs=(1,), authors=("D. White",)),
    )
    build_graph(corpus)
    assert citations_received(corpus, 1, horizon=5) == (2,)
    assert citations_received(corpus, 1, horizon=6) == (2, 3)
    assert citations_received(corpus, 1, horizon=None) == (2, 3, 4)


def test_first_author_self_exclusion():
    corpus = corpus_of(
        rec(1, year=2000, authors=("A. Smith", "B. Jones")),
        rec(2, year=2001, refs=(1,), authors=("a. smith", "C. Brown")),
        rec(3, year=2001, refs=(1,), authors=("B. Jones",)),
    )
    build_graph(corpus)
    assert citations_received(corpus, 1) == (3,)
    # A validated corpus holds trimmed names; author_key trims any other.
    assert author_key(" a. smith ") == author_key("A. Smith")


def test_citations_received_matches_brute_force_all_horizons():
    corpus = generate_corpus(GeneratorSpec(seed=3, field_count=3, years_span=10,
                                           papers_per_year=(8, 12)))
    build_graph(corpus)
    for pid in corpus:
        for horizon in (None, 1, 5):
            got = citations_received(corpus, pid, horizon)
            want = citations_direct(corpus, pid, horizon, exclude_self=True)
            assert list(got) == want, (pid, horizon)


def _jif_corpus():
    # Venue V published 2 papers across 2003-2004; 6 citing papers in 2005.
    records = [
        rec(1, year=2003, venue="V"),
        rec(2, year=2004, venue="V"),
        rec(3, year=2004, venue="W"),
    ]
    citers = []
    for i, target in enumerate((1, 1, 1, 2, 2, 2)):
        citers.append(rec(10 + i, year=2005, refs=(target,), venue="W"))
    return corpus_of(*(records + citers))


def test_jif_direct_formula():
    corpus = _jif_corpus()
    build_graph(corpus)
    assert _jif_lookup(corpus)("V", 2005) == 3.0


def test_jif_missing_when_no_prior_papers():
    corpus = _jif_corpus()
    build_graph(corpus)
    jif_of = _jif_lookup(corpus)
    assert jif_of("V", 2002) is None
    assert jif_of("NOWHERE", 2005) is None


def test_jif_zero_citations_nonzero_papers():
    corpus = _jif_corpus()
    build_graph(corpus)
    assert _jif_lookup(corpus)("W", 2005) == 0.0


def test_impact_scores_jif_matches_single_call():
    corpus = _jif_corpus()
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    jif_of = _jif_lookup(corpus)
    for pid, jif in zip(scores.ids, scores.jif):
        rec_ = corpus[pid]
        assert jif == jif_of(rec_.venue, rec_.year)


def test_jif_matches_direct_scan():
    corpus = generate_corpus(GeneratorSpec(seed=21, field_count=4, years_span=8))
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    keys = {(corpus[pid].venue, corpus[pid].year) for pid in corpus}
    want = {key: jif_direct(corpus, *key) for key in keys}
    assert any(value for value in want.values())
    jif_of = _jif_lookup(corpus)
    for venue, year in keys:
        assert jif_of(venue, year) == want[venue, year]
    for pid, jif in zip(scores.ids, scores.jif):
        assert jif == want[corpus[pid].venue, corpus[pid].year]


def test_top_cited_flags_and_share():
    # 100 papers; ids 1..5 get distinct high cp, rest zero.
    records = []
    for i in range(1, 101):
        records.append(rec(i, year=2000, fields=(0,) if i > 5 else (1,)))
    citer_id = 1000
    for i in range(1, 6):
        for _ in range(i + 1):
            records.append(rec(citer_id, year=2001, refs=(i,), fields=(2,),
                               authors=(f"Citer {citer_id}",)))
            citer_id += 1
    corpus = corpus_of(*records)
    build_graph(corpus)
    window = TimeWindow(2000, 2000)
    scores = compute_impact_scores(corpus, window=window)
    top = {pid for pid, cp in zip(scores.ids, scores.cp) if cp >= scores.cutoff}
    assert top == {1, 2, 3, 4, 5}
    counts = top_cited_counts(scores, corpus)
    assert counts[1] == (5, 5)
    assert counts[0] == (0, 5)
    hits = top_cited_counts(scores, corpus, hit_rate=True)
    assert hits[1] == (5, 5)
    assert hits[0] == (0, 95)
    assert hits[2] == (0, 0)  # field 2 only cites; it has no paper in the window


def test_top_cited_tie_at_cutoff_extends_set():
    # 100 papers, ranks 1..4 distinct, then a 3-way tie at the 5% cutoff.
    records = [rec(i, year=2000) for i in range(1, 101)]
    citer_id = 1000

    def cite(target, times):
        nonlocal citer_id
        nonlocal records
        for _ in range(times):
            records.append(rec(citer_id, year=2001, refs=(target,),
                               authors=(f"Citer {citer_id}",)))
            citer_id += 1

    for i, times in ((1, 9), (2, 8), (3, 7), (4, 6), (5, 5), (6, 5), (7, 5)):
        cite(i, times)
    corpus = corpus_of(*records)
    build_graph(corpus)
    scores = compute_impact_scores(corpus, window=TimeWindow(2000, 2000))
    top = {pid for pid, cp in zip(scores.ids, scores.cp) if cp >= scores.cutoff}
    assert top == {1, 2, 3, 4, 5, 6, 7}  # ties included, size > 5%


@pytest.mark.parametrize("cited", [0, 2])
def test_a_paper_with_no_counted_citation_is_never_top_cited(cited):
    # 100 papers, so the top 5% would be 5; only ``cited`` of them have a
    # counted citation, and the set holds only those.
    records = [rec(i, year=2000) for i in range(1, 101)]
    records += [rec(1000 + i, year=2001, refs=(i,), authors=(f"Citer {i}",))
                for i in range(1, cited + 1)]
    corpus = corpus_of(*records)
    scores = compute_impact_scores(build_graph(corpus), window=TimeWindow(2000, 2000))
    assert scores.cutoff == 1
    top = {pid for pid, cp in zip(scores.ids, scores.cp) if cp >= scores.cutoff}
    assert top == set(range(1, cited + 1))
    assert top_cited_counts(scores, corpus)[0] == (cited, cited)


def test_bucket_boundary_values():
    values = [0.0, 0.25, 0.5, 0.75, 1.0]
    assignment, lo, hi, degenerate = bucket_assignment(values, 5)
    assert not degenerate and (lo, hi) == (0.0, 1.0)
    assert assignment == [0, 1, 2, 3, 4]


def test_bucket_degenerate_single_bucket():
    corpus = corpus_of(*[rec(i, year=2000) for i in range(1, 6)])
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    report = bucket_impact([0.7] * 5, scores)
    assert report.metadata["degenerate"] == "true"
    assert len(report.rows) == 1
    assert report.rows[0][3] == 5  # count column


def test_bucket_report_shape_and_empty_buckets():
    corpus = corpus_of(*[rec(i, year=2000) for i in range(1, 5)])
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    report = bucket_impact([0.0, 0.05, 0.1, 1.0], scores, n_buckets=5)
    assert report.columns == (
        "bucket_index", "bucket_lo", "bucket_hi", "count",
        "mean_cp", "mean_jif", "top_cited_share",
    )
    counts = [row[3] for row in report.rows]
    assert counts == [3, 0, 0, 0, 1]
    assert report.rows[1][4] is None  # empty bucket -> missing means


def test_bucket_populations_partition():
    corpus = generate_corpus(GeneratorSpec(seed=8, years_span=8))
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    values = [rdi_paper(corpus, pid) for pid in scores.ids]
    report = bucket_impact(values, scores)
    assert sum(row[3] for row in report.rows) == len([v for v in values if v is not None])


def test_bucket_scale_invariance_randomized():
    # Continuous values: exact bucket-boundary hits have measure zero, so
    # positive rescaling must reproduce every assignment bit for bit.
    import random

    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 60)
        values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
        scale = rng.choice([1e-3, 0.1, 2.0, 3.7, 1e3]) * rng.uniform(0.5, 1.5)
        a1, *_ = bucket_assignment(values, 5)
        a2, *_ = bucket_assignment([v * scale for v in values], 5)
        assert a1 == a2


@pytest.mark.parametrize("n_buckets", [0, -2])
def test_bucket_count_below_one_is_refused(n_buckets):
    corpus = corpus_of(rec(1, year=2000), rec(2, year=2000))
    scores = compute_impact_scores(build_graph(corpus))
    with pytest.raises(ValueError, match=f"n_buckets must be at least 1, got {n_buckets}"):
        bucket_impact([0.0, 1.0], scores, n_buckets=n_buckets)


def test_bucket_paper_without_a_score_errors():
    # The metric is a column over the scored ids: one row short or one row
    # long is a paper without a metric value or without a score.
    corpus = corpus_of(rec(1, year=2000), rec(3, year=2000), rec(5, year=2001))
    scores = compute_impact_scores(build_graph(corpus), window=TimeWindow(2000, 2000))
    for values in ([0.0], [0.0, 0.5, 1.0]):
        with pytest.raises(AnalysisError,
                           match=f"^{len(values)} metric values for 2 scored papers$"):
            bucket_impact(values, scores)


def test_bucket_empty_values_error():
    corpus = corpus_of(rec(1, year=2000))
    build_graph(corpus)
    scores = compute_impact_scores(corpus)
    with pytest.raises(AnalysisError, match="no papers with a defined metric value"):
        bucket_impact([None], scores)


def test_impact_scores_empty_window_errors():
    corpus = corpus_of(rec(1, year=2000))
    build_graph(corpus)
    with pytest.raises(AnalysisError):
        compute_impact_scores(corpus, window=TimeWindow(1900, 1901))


def test_scores_are_columns_over_the_ascending_ids():
    corpus = corpus_of(rec(4, year=2001, venue="V"), rec(2, year=2000, venue="V"),
                       rec(9, year=2002, refs=(2, 4), authors=("B. Jones",)))
    scores = compute_impact_scores(build_graph(corpus))
    assert scores.ids == [2, 4, 9]
    assert scores.cp == [1, 1, 0]
    assert scores.jif == [None, 0.0, None]
    assert scores.cutoff == 1
    # ``per_paper`` is the scored ids: its size is the population.
    assert scores.per_paper is scores.ids


def test_impact_report_rows_are_made_from_the_score_columns():
    corpus = corpus_of(*[rec(i, year=2000 + i % 3, refs=tuple(range(1, i)),
                             authors=(f"A{i}",), venue="V") for i in range(1, 8)])
    build_graph(corpus)
    args = argparse.Namespace(lifetime=False, horizon=5, window=None, top_share=False)
    report = _run_impact(args, corpus.table)
    scores = compute_impact_scores(corpus)
    want = [(pid, cp, jif, int(cp >= scores.cutoff))
            for pid, cp, jif in zip(scores.ids, scores.cp, scores.jif)]
    assert len(report.rows) == len(want)
    assert list(report.rows) == list(report.rows) == want  # re-iterable
    assert [report.rows[i] for i in range(len(want))] == want
    assert report.column("top_cited") == [row[3] for row in want]


class _Discard:
    """A text stream that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)


def test_impact_holds_columns_not_an_object_per_paper():
    """Scoring a generated 5k-paper table and writing its ``impact`` CSV
    peaks under 64 bytes per scored paper: three columns by row, and rows
    made only as they are written."""
    table = impact_table()
    build_graph(table)
    args = argparse.Namespace(lifetime=False, horizon=5, window=None, top_share=False)
    tracemalloc.start()
    try:
        _run_impact(args, table).write(_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) >= 5000 and not table.unresolved
    assert peak < 64 * len(table), peak / len(table)
