"""Diversity scores: analytic cases, oracle equivalence, rankings."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from citefields import (
    CORPUS_GLOBAL, GeneratorSpec, TimeWindow, WINDOW_LOCAL,
    build_graph, build_keyword_sets, generate_corpus,
    paper_diversity, rank_fields,
)
from citefields.diversity import kdi_paper, rank_order, rdi_paper
from conftest import corpus_of, rec
from oracles import field_diversity_direct, kdi_direct, rdi_direct

LN2 = math.log(2)


def _rdi_corpus(split: dict[int, int]):
    """One source paper whose refs split across single-field targets by count."""
    records = []
    refs = []
    next_id = 100
    for f, count in split.items():
        for _ in range(count):
            records.append(rec(next_id, fields=(f,)))
            refs.append(next_id)
            next_id += 1
    records.append(rec(1, fields=(0,), refs=tuple(refs)))
    return corpus_of(*records)


def test_rdi_concentrated_refs_zero():
    corpus = _rdi_corpus({1: 5})
    graph = build_graph(corpus)
    assert rdi_paper(graph, corpus, 1) == 0.0


def test_rdi_uniform_two_way_is_ln2():
    corpus = _rdi_corpus({1: 2, 2: 2})
    graph = build_graph(corpus)
    assert abs(rdi_paper(graph, corpus, 1) - LN2) < 1e-12


def test_rdi_two_one_split():
    corpus = _rdi_corpus({1: 2, 2: 1})
    graph = build_graph(corpus)
    expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
    assert abs(rdi_paper(graph, corpus, 1) - expected) < 1e-12
    assert abs(expected - 0.636514) < 5e-7


def test_rdi_undefined_without_resolved_refs():
    corpus = corpus_of(rec(1, refs=(999,)))
    graph = build_graph(corpus)
    assert rdi_paper(graph, corpus, 1) is None


def test_rdi_field_mean_and_coverage():
    # Two source papers in field 0: one concentrated (0), one uniform (ln 2),
    # plus a refless paper that must not enter the mean.
    records = [
        rec(10, fields=(1,)), rec(11, fields=(1,)), rec(12, fields=(2,)),
        rec(1, fields=(0,), refs=(10, 11)),
        rec(2, fields=(0,), refs=(11, 12)),
        rec(3, fields=(0,)),
    ]
    corpus = corpus_of(*records)
    graph = build_graph(corpus)
    assert paper_diversity(graph, corpus, "rdi") == [
        0.0, pytest.approx(LN2, abs=1e-15), None, None, None, None]
    row = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)]).rows[0]
    assert row[5] == 2  # coverage
    assert abs(row[4] - LN2 / 2) < 1e-12


def test_rdi_field_without_defined_paper_is_blank():
    # Field 0 has only a refless paper, field 5 has no paper at all.
    corpus = corpus_of(rec(1, fields=(0,)))
    graph = build_graph(corpus)
    assert paper_diversity(graph, corpus, "rdi") == [None]
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)])
    for f in (0, 5):
        row = report.rows[f]
        assert (row[4], row[5], row[7]) == (None, 0, None)  # value, coverage, rank


def test_paper_diversity_is_a_column_over_the_window_ids():
    # One row per paper of the window by ascending id, None where the score
    # is undefined, also between defined ones; papers outside it get none.
    corpus = corpus_of(
        rec(7, year=2001, fields=(0,), refs=(20, 21), keywords=("k1",)),
        rec(3, year=2000, fields=(0,), refs=(20,), keywords=("k1", "k2")),
        rec(5, year=2000, fields=(1,), keywords=()),
        rec(20, year=1990, fields=(1,), keywords=("k2",)),
        rec(21, year=1990, fields=(2,)),
    )
    graph = build_graph(corpus)
    window = TimeWindow(2000, 2001)
    assert paper_diversity(graph, corpus, "rdi", window) == [0.0, None, pytest.approx(LN2)]
    pools = build_keyword_sets(corpus, window)
    assert paper_diversity(graph, corpus, "kdi", window) == [
        kdi_paper(corpus, pools, 3), None, kdi_paper(corpus, pools, 7)]
    assert paper_diversity(graph, corpus, "rdi") == [0.0, None, pytest.approx(LN2), None, None]


def _kdi_corpus():
    # Paper 1 has keywords {k1, k2}; field 0's pool covers both (via paper 1
    # itself), field 1 intersects one, field 2 none.
    return corpus_of(
        rec(1, fields=(0,), keywords=("k1", "k2")),
        rec(2, fields=(1,), keywords=("k2", "other")),
        rec(3, fields=(2,), keywords=("elsewhere",)),
    )


def test_kdi_own_pool_only_zero():
    corpus = corpus_of(
        rec(1, fields=(0,), keywords=("k1", "k2")),
        rec(3, fields=(2,), keywords=("elsewhere",)),
    )
    sets = build_keyword_sets(corpus)
    assert kdi_paper(corpus, sets, 1) == 0.0


def test_kdi_half_overlap_second_field():
    corpus = _kdi_corpus()
    sets = build_keyword_sets(corpus)
    # x=1 contributes 0; x=0.5 contributes -0.5 ln 0.5
    assert abs(kdi_paper(corpus, sets, 1) - (-0.5 * math.log(0.5))) < 1e-12


def test_kdi_three_field_overlap_case():
    # |K_p| = 4; fields intersect 2, 1, 1 of them.
    corpus = corpus_of(
        rec(1, fields=(3,), keywords=("a", "b", "c", "d")),
        rec(2, fields=(0,), keywords=("a", "b")),
        rec(3, fields=(1,), keywords=("c",)),
        rec(4, fields=(2,), keywords=("d",)),
    )
    sets = build_keyword_sets(corpus)
    got = kdi_paper(corpus, sets, 1)
    # own field contributes x=1 -> 0; then 0.5, 0.25, 0.25
    expected = -0.5 * math.log(0.5) - 2 * (0.25 * math.log(0.25))
    assert abs(got - expected) < 1e-12
    assert abs(expected - 1.039721) < 5e-7


def test_kdi_undefined_without_keywords():
    corpus = corpus_of(rec(1, keywords=()))
    sets = build_keyword_sets(corpus)
    assert kdi_paper(corpus, sets, 1) is None


def test_kdi_field_mean():
    corpus = _kdi_corpus()
    sets = build_keyword_sets(corpus)
    v1 = kdi_paper(corpus, sets, 1)
    v2 = kdi_paper(corpus, sets, 2)
    v3 = kdi_paper(corpus, sets, 3)
    graph = build_graph(corpus)
    assert paper_diversity(graph, corpus, "kdi") == [v1, v2, v3]
    report = rank_fields(graph, corpus, "kdi", [TimeWindow(1900, 2100)])
    for row, v in zip(report.rows, (v1, v2)):
        assert row[5] == 1 and abs(row[4] - v) < 1e-15


def test_kdi_normalized_variant_renormalizes():
    corpus = _kdi_corpus()
    sets = build_keyword_sets(corpus)
    got = kdi_paper(corpus, sets, 1, normalized=True)
    # overlaps 1.0 and 0.5 renormalize to 2/3, 1/3
    expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
    assert abs(got - expected) < 1e-12


def test_keyword_scope_window_local_vs_global():
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,), keywords=("k1", "k2")),
        rec(2, year=2005, fields=(1,), keywords=("k1",)),
    )
    w = TimeWindow(1985, 1995)
    local = build_keyword_sets(corpus, w, WINDOW_LOCAL)
    both = build_keyword_sets(corpus, w, CORPUS_GLOBAL)
    assert local[1] == frozenset()
    assert both[1] == frozenset({"k1"})
    # window-local: only its own field intersects -> 0; global: field 1 matches too
    assert kdi_paper(corpus, local, 1) == 0.0
    assert kdi_paper(corpus, both, 1) > 0.0


def test_global_scope_per_paper_values_unchanged_by_extra_papers():
    base = [
        rec(1, year=1990, fields=(0,), keywords=("k1", "k2")),
        rec(2, year=1990, fields=(1,), keywords=("k2",)),
    ]
    added = base + [rec(3, year=2005, fields=(2,), keywords=("zzz",))]
    c1, c2 = corpus_of(*base), corpus_of(*added)
    s1 = build_keyword_sets(c1, scope=CORPUS_GLOBAL)
    s2 = build_keyword_sets(c2, scope=CORPUS_GLOBAL)
    assert kdi_paper(c1, s1, 1) == kdi_paper(c2, s2, 1)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=20).filter(lambda c: sum(c) > 0))
@settings(max_examples=100, deadline=None)
def test_rdi_matches_direct_oracle_property(counts):
    split = {f: c for f, c in enumerate(counts) if c > 0}
    corpus = _rdi_corpus(split)
    graph = build_graph(corpus)
    got = rdi_paper(graph, corpus, 1)
    want = rdi_direct(corpus, 1)
    assert got == pytest.approx(want, rel=1e-12)


def test_kdi_matches_direct_oracle_randomized():
    rng = random.Random(42)
    universe = [f"kw{i}" for i in range(12)]
    for _ in range(200):
        n_fields = rng.randint(1, 5)
        records = []
        for f in range(n_fields):
            pool = rng.sample(universe, rng.randint(1, 8))
            records.append(rec(100 + f, fields=(f,), keywords=tuple(pool)))
        kp = rng.sample(universe, rng.randint(1, 6))
        records.append(rec(1, fields=(0,), keywords=tuple(kp)))
        corpus = corpus_of(*records)
        sets = build_keyword_sets(corpus)
        pools = {f: set(sets[f]) for f in range(len(corpus.taxonomy))}
        got = kdi_paper(corpus, sets, 1)
        want = kdi_direct(corpus, pools, 1)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def multi_tagged():
    spec = GeneratorSpec(seed=17, field_count=24, years_span=10,
                         papers_per_year=(30, 30), multi_tag_probability=0.3)
    return generate_corpus(spec)


@pytest.mark.parametrize("metric, multiplicity, scope, normalized", [
    ("rdi", "full", WINDOW_LOCAL, False),
    ("rdi", "fractional", WINDOW_LOCAL, False),
    ("kdi", "full", WINDOW_LOCAL, False),
    ("kdi", "full", CORPUS_GLOBAL, True),
])
def test_rank_fields_match_direct_field_means(multi_tagged, metric, multiplicity, scope,
                                              normalized):
    corpus = multi_tagged
    assert sum(len(corpus[pid].fields) > 1 for pid in corpus) > 0.2 * len(corpus)
    graph = build_graph(corpus, multiplicity)
    windows = [TimeWindow(1970, 1979), TimeWindow(1972, 1975)]
    report = rank_fields(graph, corpus, metric, windows,
                         keyword_scope=scope, normalized_kdi=normalized)
    assert len(report.rows) == 24 * len(windows)
    for i, row in enumerate(report.rows):
        window, f = windows[i // 24], i % 24
        mean, coverage = field_diversity_direct(corpus, f, window, metric, multiplicity,
                                                scope, normalized)
        assert row[5] == coverage
        assert row[4] == (None if mean is None else pytest.approx(mean, rel=1e-12))


def test_rank_fields_planted_ordering():
    # Field 0 papers cite across fields; field 1 papers cite in-field.
    records = [
        rec(10, fields=(1,)), rec(11, fields=(2,)), rec(12, fields=(3,)),
        rec(13, fields=(1,)),
        rec(1, fields=(0,), refs=(10, 11, 12)),
        rec(2, fields=(1,), refs=(10, 13)),
    ]
    corpus = corpus_of(*records)
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)])
    by_field = {row[2]: row for row in report.rows}
    assert by_field["AI"][7] == 1  # rank column
    assert by_field["Algo"][7] == 2
    assert by_field["AI"][4] > by_field["Algo"][4]


def test_rank_fields_missing_cells_not_aborts():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(0,)))
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)])
    assert len(report.rows) == len(corpus.taxonomy)
    by_field = {row[2]: row for row in report.rows}
    assert by_field["AI"][4] == 0.0 and by_field["AI"][7] == 1
    assert by_field["DM"][4] is None and by_field["DM"][7] is None
    assert by_field["DM"][5] == 0  # coverage


def test_rank_ties_break_by_field_index():
    assert rank_order({3: 1.0, 1: 1.0, 2: 2.0}) == [2, 1, 3]


def test_log_base_rescale_keeps_order():
    corpus = generate_corpus(GeneratorSpec(seed=9, field_count=6, years_span=8))
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)])
    values = {row[2]: row[4] for row in report.rows if row[4] is not None}
    scaled = {f: v / LN2 for f, v in values.items()}
    assert rank_order(values) == rank_order(scaled)


def test_single_field_always_rank_one():
    corpus = corpus_of(rec(1, fields=(0,), refs=(2,)), rec(2, fields=(1,)))
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1900, 2100)])
    ranked = [row for row in report.rows if row[7] is not None]
    assert len(ranked) == 1 and ranked[0][7] == 1
