"""Reciprocity: fraction matrix, Pearson oracle, return-citation buckets."""

import math
import random

import numpy as np
import pytest

from citefields import (
    AnalysisError, DEFAULT_FIELDS, FieldTaxonomy, GeneratorSpec, TimeWindow,
    acp_bucket_test, build_graph, citation_fraction_matrix,
    generate_corpus, pearson_report, reciprocity_pearson,
)
from citefields.reciprocity import _row_total
from conftest import corpus_of, rec
from oracles import (
    acp_direct, bucket_split_direct, fraction_matrix_direct, pearson_raw_moments,
    row_totals_numpy,
)


def test_matrix_self_citing_field_row():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    m = citation_fraction_matrix(corpus)
    assert m[0][0] == 1.0
    assert m[0][1] == 0.0
    assert all(math.isnan(x) for x in m[1])  # no outflow row


def test_matrix_planted_fractions():
    # Field 0 flow: 2 self, 1 to field 1, 1 to field 2.
    corpus = corpus_of(
        rec(1, fields=(0,), refs=(2, 3, 4, 5)),
        rec(2, fields=(0,)), rec(3, fields=(0,)),
        rec(4, fields=(1,)), rec(5, fields=(2,)),
    )
    m = citation_fraction_matrix(corpus)
    assert m[0][0] == 0.5 and m[0][1] == 0.25 and m[0][2] == 0.25


def test_matrix_rows_sum_to_one():
    corpus = generate_corpus(GeneratorSpec(seed=13, field_count=6, years_span=10))
    m = citation_fraction_matrix(corpus)
    for i in range(len(m)):
        if not math.isnan(m[i][0]):
            assert abs(math.fsum(m[i]) - 1.0) <= 1e-12


def test_matrix_matches_direct_oracle_with_window():
    corpus = generate_corpus(GeneratorSpec(seed=14, field_count=5, years_span=10,
                                           multi_tag_probability=0.25))
    window = TimeWindow(1973, 1977)
    got = citation_fraction_matrix(corpus, window)
    want = fraction_matrix_direct(corpus, len(corpus.taxonomy), window)
    for i in range(len(want)):
        for j in range(len(want)):
            if want[i][j] is None:
                assert math.isnan(got[i][j])
            else:
                assert got[i][j] == pytest.approx(want[i][j], rel=1e-12)


# Around each branch of numpy's pairwise sum: in order below 8 values, 8
# accumulators up to 128, halves above (a custom taxonomy may be that wide).
@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 23, 24, 25, 128, 129, 200, 300])
def test_row_total_adds_in_numpy_order(width):
    rng = random.Random(width)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return 0.0
        if kind == 1:
            return 1.0 / rng.randint(1, 12)
        if kind == 2:
            return rng.randint(1, 9) / rng.randint(1, 9)
        return 10.0 ** rng.uniform(-3.0, 3.0)

    rows = [[value() for _ in range(width)] for _ in range(40)] + [[0.0] * width]
    assert [_row_total(row) for row in rows] == row_totals_numpy(rows)


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
        reciprocity_pearson(np.full((3, 3), 0.5))
    with pytest.raises(AnalysisError):
        reciprocity_pearson(np.array([[1.0]]))


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


def _bucket_acps(corpus, focal, target, window):
    rows = acp_bucket_test(corpus, focal, target, window).rows
    return {row[2]: row[4] for row in rows}


def test_acp_no_citations_zero_and_direct_division():
    # Focal papers 1 and 2 cite only field 1, so they form bucket 1 against
    # target field 1 and bucket 2 against target field 2. Paper 3 (field 1)
    # cites paper 1: one return citation over two bucket papers.
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), refs=(4,)),
        rec(2, year=1990, fields=(0,), refs=(4,)),
        rec(3, year=1995, fields=(1,), refs=(1,)),
        rec(4, year=1985, fields=(1,)),
    )
    build_graph(corpus)
    window = TimeWindow(1990, 1990)
    assert _bucket_acps(corpus, 0, 1, window) == {"bucket-1": 0.5, "bucket-2": None}
    assert _bucket_acps(corpus, 0, 2, window) == {"bucket-1": None, "bucket-2": 0.0}


def test_acp_ten_citations_into_four_papers():
    targets = [rec(i, year=2000, fields=(0,), refs=(50,)) for i in range(1, 5)]
    citers = []
    cid = 100
    for t in (1, 1, 1, 2, 2, 3, 3, 3, 3, 4):
        citers.append(rec(cid, fields=(1,), refs=(t,), year=2001))
        cid += 1
    corpus = corpus_of(rec(50, year=1999, fields=(1,)), *(targets + citers))
    build_graph(corpus)
    acps = _bucket_acps(corpus, 0, 1, TimeWindow(2000, 2000))
    assert acps["bucket-1"] == 2.5


def test_acp_matches_brute_force():
    corpus = generate_corpus(GeneratorSpec(seed=44, field_count=4, years_span=10,
                                           multi_tag_probability=0.2))
    build_graph(corpus)
    window = TimeWindow(1972, 1977)
    for focal in range(4):
        for target in range(4):
            acps = _bucket_acps(corpus, focal, target, window)
            for label, members in zip(("bucket-1", "bucket-2"),
                                      bucket_split_direct(corpus, focal, target, window)):
                if members:
                    assert acps[label] == pytest.approx(
                        acp_direct(corpus, target, members), rel=1e-12
                    )
                else:
                    assert acps[label] is None


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
    build_graph(corpus)
    report = acp_bucket_test(corpus, 0, 1, TimeWindow(1990, 1995))
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
    build_graph(corpus)
    window = TimeWindow(1975, 1980)
    report = acp_bucket_test(corpus, 0, 1, window)
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
    build_graph(corpus)
    report = acp_bucket_test(corpus, 0, 1, TimeWindow(1990, 1995))
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
    build_graph(corpus)
    report = acp_bucket_test(corpus, 0, 1, TimeWindow(1990, 1995))
    rows = {row[2]: row for row in report.rows}
    assert rows["bucket-2"][3] == 100.0


def test_acp_bucket_test_no_classified_papers_errors():
    corpus = corpus_of(rec(1, year=1990, fields=(0,)))
    build_graph(corpus)
    with pytest.raises(AnalysisError):
        acp_bucket_test(corpus, 0, 1, TimeWindow(1990, 1995))
