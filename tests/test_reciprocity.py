"""Reciprocity: fraction matrix, Pearson oracle, return-citation buckets."""

import math
import random

import numpy as np
import pytest

from citefields import (
    AnalysisError, DEFAULT_FIELDS, FieldTaxonomy, GeneratorSpec, TimeWindow,
    acp, acp_bucket_test, build_graph, citation_fraction_matrix,
    generate_corpus, pearson, pearson_report, reciprocity_pearson,
)
from conftest import corpus_of, rec
from oracles import acp_direct, bucket_split_direct, fraction_matrix_direct, pearson_raw_moments


def test_matrix_self_citing_field_row():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    graph = build_graph(corpus)
    m = citation_fraction_matrix(graph, corpus)
    assert m[0, 0] == 1.0
    assert m[0, 1] == 0.0
    assert np.isnan(m[1]).all()  # no outflow row


def test_matrix_planted_fractions():
    # Field 0 flow: 2 self, 1 to field 1, 1 to field 2.
    corpus = corpus_of(
        rec(1, fields=(0,), refs=(2, 3, 4, 5)),
        rec(2, fields=(0,)), rec(3, fields=(0,)),
        rec(4, fields=(1,)), rec(5, fields=(2,)),
    )
    graph = build_graph(corpus)
    m = citation_fraction_matrix(graph, corpus)
    assert m[0, 0] == 0.5 and m[0, 1] == 0.25 and m[0, 2] == 0.25


def test_matrix_rows_sum_to_one():
    corpus = generate_corpus(GeneratorSpec(seed=13, field_count=6, years_span=10))
    graph = build_graph(corpus)
    m = citation_fraction_matrix(graph, corpus)
    for i in range(m.shape[0]):
        if not np.isnan(m[i, 0]):
            assert abs(m[i].sum() - 1.0) <= 1e-12


def test_matrix_matches_direct_oracle_with_window():
    corpus = generate_corpus(GeneratorSpec(seed=14, field_count=5, years_span=10,
                                           multi_tag_probability=0.25))
    graph = build_graph(corpus)
    window = TimeWindow(1973, 1977)
    got = citation_fraction_matrix(graph, corpus, window)
    want = fraction_matrix_direct(corpus, len(corpus.taxonomy), window)
    for i in range(len(want)):
        for j in range(len(want)):
            if want[i][j] is None:
                assert np.isnan(got[i, j])
            else:
                assert got[i, j] == pytest.approx(want[i][j], rel=1e-12)


def test_pearson_symmetric_matrix_exactly_one():
    n = 6
    rng = random.Random(0)
    m = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = rng.random()
    r, points = reciprocity_pearson(m)
    assert r == 1.0
    assert points == n * n


def test_pearson_matches_covariance_oracle():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(3, 10)
        m = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
        m = m / m.sum(axis=1, keepdims=True)
        for include in (True, False):
            r, points = reciprocity_pearson(m, include_diagonal=include)
            xs, ys = [], []
            for i in range(n):
                for j in range(n):
                    if i == j and not include:
                        continue
                    xs.append(m[i, j])
                    ys.append(m[j, i])
            assert points == len(xs)
            assert r == pytest.approx(pearson_raw_moments(xs, ys), rel=1e-12)


def test_pearson_point_construction_symmetric():
    rng = random.Random(5)
    m = np.array([[rng.random() for _ in range(5)] for _ in range(5)])
    r1, _ = reciprocity_pearson(m)
    r2, _ = reciprocity_pearson(m.T)
    assert r1 == pytest.approx(r2, abs=1e-15)


def test_pearson_group_restriction_and_nan_dropping():
    m = np.full((4, 4), np.nan)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = 0.6, 0.4, 0.3, 0.7
    r, points = reciprocity_pearson(m, {0, 1})
    assert points == 4
    r_all, points_all = reciprocity_pearson(m)
    assert points_all == 4  # the NaN cells drop out pairwise
    assert r == pytest.approx(r_all, abs=1e-15)


def test_pearson_degenerate_variance_errors():
    with pytest.raises(AnalysisError):
        pearson([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(AnalysisError):
        pearson([1.0], [1.0])


def test_default_groups_resolve():
    tax = FieldTaxonomy.default()
    rng = random.Random(9)
    m = np.array([[rng.random() for _ in range(24)] for _ in range(24)])
    rows = pearson_report(m, tax).rows
    assert [row[0] for row in rows] == [
        "all", "Data Science", "Theoretical CS", "Visualization", "Computer Networks",
    ]
    assert rows[0][1:] == reciprocity_pearson(m)
    groups = {
        "Data Science": ("DB", "DM", "IR", "NLP", "ML"),
        "Theoretical CS": ("Algo", "PL", "SE"),
        "Visualization": ("GRP", "CV", "HCI", "MUL"),
        "Computer Networks": ("NETW", "SEC", "DIST", "WWW"),
    }
    for name, r, points in rows[1:]:
        members = [tax.index_of(a) for a in groups[name]]
        assert (r, points) == reciprocity_pearson(m, members)


def test_pearson_report_drops_groups_missing_a_member():
    # AI..ML: every built-in group lacks at least one of its fields.
    tax = FieldTaxonomy(DEFAULT_FIELDS[:8])
    rng = random.Random(10)
    m = np.array([[rng.random() for _ in range(8)] for _ in range(8)])
    rows = pearson_report(m, tax, include_diagonal=False).rows
    assert rows == [("all", *reciprocity_pearson(m, include_diagonal=False))]


def test_acp_no_citations_zero_and_direct_division():
    corpus = corpus_of(
        rec(1, fields=(0,)), rec(2, fields=(0,)),
        rec(3, fields=(1,), refs=(1,)),
    )
    graph = build_graph(corpus)
    assert acp(graph, corpus, 2, {1, 2}) == 0.0
    assert acp(graph, corpus, 1, {1, 2}) == 0.5
    with pytest.raises(AnalysisError):
        acp(graph, corpus, 0, set())


def test_acp_ten_citations_into_four_papers():
    targets = [rec(i, fields=(0,)) for i in range(1, 5)]
    citers = []
    cid = 100
    for t in (1, 1, 1, 2, 2, 3, 3, 3, 3, 4):
        citers.append(rec(cid, fields=(1,), refs=(t,), year=2001))
        cid += 1
    corpus = corpus_of(*(targets + citers))
    graph = build_graph(corpus)
    assert acp(graph, corpus, 1, {1, 2, 3, 4}) == 2.5


def test_acp_matches_brute_force():
    corpus = generate_corpus(GeneratorSpec(seed=44, field_count=4, years_span=10))
    graph = build_graph(corpus)
    rng = random.Random(0)
    ids = list(corpus)
    for _ in range(10):
        targets = set(rng.sample(ids, rng.randint(1, 20)))
        for f in range(4):
            assert acp(graph, corpus, f, targets) == pytest.approx(
                acp_direct(corpus, f, targets), rel=1e-12
            )


def _reciprocation_corpus():
    """Focal field 0 papers in 1990-1995; bucket-1 papers lean on field 1 and
    get heavier return citations from field 1 afterwards."""
    records = []
    # Early target-field papers to cite.
    for i in range(1, 6):
        records.append(rec(i, year=1985, fields=(1,)))
    for i in range(6, 11):
        records.append(rec(i, year=1985, fields=(2,)))
    # Bucket-1 focal papers: 3 of 4 refs into field 1.
    for i, pid in enumerate(range(20, 24)):
        records.append(rec(pid, year=1991, fields=(0,), refs=(1, 2, 3, 6 + i)))
    # Bucket-2 focal papers: 1 of 4 refs into field 1.
    for i, pid in enumerate(range(30, 34)):
        records.append(rec(pid, year=1992, fields=(0,), refs=(1, 6, 7, 8)))
    # Return citations from field 1: heavy into bucket-1, light into bucket-2.
    cid = 100
    for target in range(20, 24):
        for _ in range(5):
            records.append(rec(cid, year=1997, fields=(1,), refs=(target,)))
            cid += 1
    for target in range(30, 34):
        records.append(rec(cid, year=1997, fields=(1,), refs=(target,)))
        cid += 1
    return corpus_of(*records)


def test_acp_bucket_test_planted_reciprocation():
    corpus = _reciprocation_corpus()
    graph = build_graph(corpus)
    report = acp_bucket_test(graph, corpus, 0, 1, TimeWindow(1990, 1995))
    rows = {row[2]: row for row in report.rows}
    assert rows["bucket-1"][3] == 50.0 and rows["bucket-2"][3] == 50.0
    assert rows["bucket-1"][4] == 5.0
    assert rows["bucket-2"][4] == 1.0
    assert report.metadata["acp_diff_pct"] == pytest.approx(400.0)
    # sizes always cover the classified population
    assert rows["bucket-1"][3] + rows["bucket-2"][3] == 100.0


def test_acp_bucket_test_matches_direct_split():
    corpus = generate_corpus(GeneratorSpec(seed=77, field_count=4, years_span=12,
                                           multi_tag_probability=0.2))
    graph = build_graph(corpus)
    window = TimeWindow(1975, 1980)
    report = acp_bucket_test(graph, corpus, 0, 1, window)
    b1, b2 = bucket_split_direct(corpus, 0, 1, window)
    rows = {row[2]: row for row in report.rows}
    total = len(b1) + len(b2)
    assert rows["bucket-1"][3] == pytest.approx(100.0 * len(b1) / total)
    assert rows["bucket-2"][3] == pytest.approx(100.0 * len(b2) / total)
    if b1:
        assert rows["bucket-1"][4] == pytest.approx(acp_direct(corpus, 1, b1), rel=1e-12)
    if b2:
        assert rows["bucket-2"][4] == pytest.approx(acp_direct(corpus, 1, b2), rel=1e-12)


def test_acp_bucket_test_empty_bucket_missing_acp():
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(2, 3)),
        rec(2, year=1985, fields=(2,)), rec(3, year=1985, fields=(2,)),
    )
    graph = build_graph(corpus)
    report = acp_bucket_test(graph, corpus, 0, 1, TimeWindow(1990, 1995))
    rows = {row[2]: row for row in report.rows}
    assert rows["bucket-1"][3] == 0.0 and rows["bucket-1"][4] is None
    assert rows["bucket-2"][3] == 100.0
    assert report.metadata["acp_diff_pct"] is None


def test_acp_bucket_test_threshold_is_strict():
    # Exactly half the refs to the target: fraction == 0.5 goes to bucket 2.
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(2, 3)),
        rec(2, year=1985, fields=(1,)), rec(3, year=1985, fields=(2,)),
    )
    graph = build_graph(corpus)
    report = acp_bucket_test(graph, corpus, 0, 1, TimeWindow(1990, 1995))
    rows = {row[2]: row for row in report.rows}
    assert rows["bucket-2"][3] == 100.0


def test_acp_bucket_test_no_classified_papers_errors():
    corpus = corpus_of(rec(1, year=1990, fields=(0,)))
    graph = build_graph(corpus)
    with pytest.raises(AnalysisError):
        acp_bucket_test(graph, corpus, 0, 1, TimeWindow(1990, 1995))
