"""Corpus model: partitions, window views, stats."""

import pytest

from citefields import AnalysisError, Corpus, FieldTaxonomy, TimeWindow, corpus_stats, parse_corpus
from conftest import GOLDEN_RECORD, corpus_of, rec


def test_window_validation_and_parse():
    w = TimeWindow.parse("1990:1995")
    assert w.start == 1990 and w.end == 1995
    assert w.contains(1990) and w.contains(1995) and not w.contains(1996)
    with pytest.raises(ValueError):
        TimeWindow(2000, 1999)
    with pytest.raises(ValueError):
        TimeWindow.parse("1990-1995")


def test_multi_field_paper_appears_in_each_partition():
    corpus = corpus_of(rec(1, fields=(0, 3)), rec(2, fields=(3,)))
    assert corpus.by_field[0] == frozenset({1})
    assert corpus.by_field[3] == frozenset({1, 2})


def test_by_year_union_covers_all_ids():
    corpus = corpus_of(rec(1, year=1990), rec(2, year=1991), rec(3, year=1990))
    union = frozenset().union(*corpus.by_year.values())
    assert union == frozenset(corpus.records)


def test_constructor_rejects_invariant_violations():
    with pytest.raises(ValueError):
        corpus_of(rec(1), rec(1))
    with pytest.raises(ValueError):
        corpus_of(rec(1, fields=()))
    with pytest.raises(ValueError):
        corpus_of(rec(1, refs=(2, 2)))
    with pytest.raises(ValueError):
        corpus_of(rec(1, refs=(1,)))
    with pytest.raises(ValueError):
        corpus_of(rec(1, fields=(99,)))


def test_filter_window_single_year(golden_text, taxonomy):
    corpus, _ = parse_corpus(golden_text, taxonomy)
    view = corpus.filter_window(TimeWindow(2007, 2007))
    assert len(view) == 1
    assert view.is_view


def test_filter_window_full_range_is_identical_population():
    corpus = corpus_of(rec(1, year=1950), rec(2, year=2050))
    view = corpus.filter_window(TimeWindow(1900, 2100))
    assert set(view.records) == set(corpus.records)
    assert view.by_field == corpus.by_field
    assert view.by_year == corpus.by_year


def test_filter_window_disjoint_range_is_empty():
    corpus = corpus_of(rec(1, year=1950), rec(2, year=2050))
    view = corpus.filter_window(TimeWindow(1800, 1801))
    assert len(view) == 0


def test_view_resolves_references_outside_the_window():
    corpus = corpus_of(rec(1, year=1990, refs=(2,)), rec(2, year=1950))
    view = corpus.filter_window(TimeWindow(1980, 2000))
    assert 2 not in view
    assert view.resolve(2) is not None
    assert view.resolve(2).year == 1950


def test_view_of_view_resolves_against_original():
    corpus = corpus_of(rec(1, year=1990), rec(2, year=1950), rec(3, year=1970))
    inner = corpus.filter_window(TimeWindow(1960, 2000)).filter_window(TimeWindow(1980, 2000))
    assert set(inner.records) == {1}
    assert inner.resolve(2) is not None


def test_corpus_stats_counts_and_fraction():
    records = [rec(i, fields=(0,)) for i in range(1, 10)] + [rec(10, fields=(0, 1))]
    report = corpus_stats(corpus_of(*records))
    assert report.metadata["multi_field_fraction"] == 0.10
    assert report.metadata["records"] == 10
    by_abbr = {row[0]: row[1] for row in report.rows}
    assert by_abbr["AI"] == 10
    assert by_abbr["Algo"] == 1


def test_corpus_stats_single_paper():
    report = corpus_stats(corpus_of(rec(1, fields=(2,), keywords=("a", "b"))))
    assert report.metadata["multi_field_fraction"] == 0.0
    assert report.metadata["mean_keywords"] == 2.0
    by_abbr = {row[0]: row[1] for row in report.rows}
    assert by_abbr["NETW"] == 1


def test_corpus_stats_empty_corpus_errors():
    with pytest.raises(AnalysisError):
        corpus_stats(corpus_of())


def test_papers_in_filters_by_field_and_window():
    corpus = corpus_of(
        rec(1, year=1990, fields=(0,)),
        rec(2, year=1995, fields=(0,)),
        rec(3, year=1995, fields=(1,)),
    )
    assert corpus.papers_in(field=0) == [1, 2]
    assert corpus.papers_in(field=0, window=TimeWindow(1994, 1996)) == [2]
    assert corpus.papers_in(window=TimeWindow(1995, 1995)) == [2, 3]
