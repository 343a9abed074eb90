"""Corpus model: field and window selection, windows, stats."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from citefields import (
    STRICT, AnalysisError, FieldTaxonomy, PaperRecord, TimeWindow, corpus_stats, parse_corpus,
    serialize_corpus, serialize_record,
)
from citefields import corpusio
from conftest import corpus_of, rec


def test_window_validation_and_parse():
    w = TimeWindow.parse("1990:1995")
    assert w.start == 1990 and w.end == 1995
    assert w.contains(1990) and w.contains(1995) and not w.contains(1996)
    with pytest.raises(ValueError):
        TimeWindow(2000, 1999)
    with pytest.raises(ValueError):
        TimeWindow.parse("1990-1995")


@pytest.mark.parametrize("text", [
    "1_970:1980", "+1970:1980", "1970:-1980", " 1970:1980", "1970:198\u0660",
    "1970:1980:1990", ":1980", "1970",
])
def test_window_years_are_ascii_digits_only(text):
    with pytest.raises(ValueError, match="bad window"):
        TimeWindow.parse(text)


@pytest.mark.parametrize("text", ["1899:1950", "1970:2101", "1970:2500", "1970:99999999"])
def test_window_years_outside_the_parsed_range_are_refused(text):
    # No parsed record can be dated outside YEAR_RANGE, 1900 to 2100.
    with pytest.raises(ValueError, match=f"^window {text} falls outside the years 1900:2100$"):
        TimeWindow.parse(text)
    assert TimeWindow.parse("1900:2100") == TimeWindow(1900, 2100)


def test_multi_field_paper_appears_in_each_partition():
    corpus = corpus_of(rec(2, fields=(3,)), rec(1, fields=(0, 3)))
    for papers in (corpus, corpus.table):
        assert papers.papers_in(field=0) == [1]
        assert papers.papers_in(field=3) == [1, 2]


def test_by_year_union_covers_all_ids():
    corpus = corpus_of(rec(3, year=1990), rec(1, year=1990), rec(2, year=1991))
    years = sorted(set(corpus.table.year.values()))
    assert years == [1990, 1991]
    for papers in (corpus, corpus.table):
        union = frozenset().union(*(papers.papers_in(window=TimeWindow(y, y)) for y in years))
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


def test_papers_in_ascends_whatever_the_record_order():
    rng = random.Random(7)
    records = [
        rec(pid, year=rng.randint(1990, 1995), fields=rng.sample(range(4), rng.randint(1, 2)))
        for pid in rng.sample(range(1, 500), 80)
    ]
    corpus = corpus_of(*records)
    windows = (None, TimeWindow(1991, 1993), *(TimeWindow(y, y) for y in range(1990, 1996)))
    for papers in (corpus, corpus.table):
        for field in (None, 0, 1, 2, 3, 7):
            for w in windows:
                want = sorted(
                    r.id for r in records
                    if (field is None or field in r.fields) and (w is None or w.contains(r.year))
                )
                ids = papers.papers_in(field=field, window=w)
                assert type(ids) is list and ids == want


@pytest.mark.parametrize("keywords", [
    ("b", "a"), ("a", "a"), ("a", "b", "b"), frozenset({"a"}), ["a", "b"],
], ids=["unsorted", "repeated", "repeated-last", "frozenset", "list"])
def test_corpus_rejects_keywords_that_are_not_an_ascending_tuple(keywords):
    bad = rec(2)._replace(keywords=keywords)
    with pytest.raises(ValueError, match="paper 2 keywords"):
        corpus_of(rec(1, keywords=("a", "b")), bad)


@pytest.mark.parametrize("keyword", [
    "Data,Mining", "Data", " data", "data ", "data  mining", "data\tmining", "stra\u00dfe", "",
])
def test_corpus_rejects_keywords_the_parser_would_not_store(keyword):
    # serialize_corpus writes "#kData,Mining", which re-parses as ("data",
    # "mining"): only normalized keywords round-trip.
    bad = rec(2)._replace(keywords=(keyword,))
    with pytest.raises(ValueError, match=re.escape(f"paper 2 keywords {(keyword,)!r} re-parses as ")):
        corpus_of(rec(1, keywords=("data mining", "strasse")), bad)


@pytest.mark.parametrize("change, message", [
    # Each would re-parse unequal: split at the comma, trimmed, lost, cut at
    # the blank line (which ends the record), skipped, dropped, or rebuilt
    # as the parser's tuple or frozenset.
    ({"authors": ("Smith, J",)}, "authors ('Smith, J',) re-parses as ('Smith', 'J')"),
    ({"authors": ("",)}, "authors ('',) re-parses as ()"),
    ({"authors": (" Smith",)}, "authors (' Smith',) re-parses as ('Smith',)"),
    ({"title": " T "}, "title ' T '"),
    ({"title": "T\nU"}, "title 'T\\nU'"),
    ({"venue": " V"}, "venue ' V'"),
    ({"venue": ""}, "venue ''"),
    ({"abstract": "a\n\nb"}, "abstract 'a\\n\\nb'"),
    ({"abstract": ""}, "abstract ''"),
    ({"year": 1899}, "would be skipped on re-parse: malformed-year: missing or out-of-range year '1899'"),
    ({"references": (-1,)}, "references (-1,) re-parses as ()"),
    ({"authors": ["A"]}, "authors and references must be tuples"),
    ({"references": [1]}, "authors and references must be tuples"),
    ({"fields": (0,)}, "authors and references must be tuples, fields a frozenset"),
], ids=["comma-author", "empty-author", "untrimmed-author", "untrimmed-title",
        "two-line-title", "untrimmed-venue", "empty-venue", "blank-line-abstract",
        "empty-abstract", "year", "negative-reference", "author-list", "reference-list",
        "field-tuple"])
def test_corpus_rejects_values_the_parser_would_not_store(change, message):
    bad = rec(2)._replace(**change)
    with pytest.raises(ValueError, match=re.escape(f"paper 2 {message}")):
        corpus_of(rec(1), bad)


# Characters the parser splits on or trims, mixed with plain ones.
_edgy_text = st.text(st.sampled_from("ab, \t\n\r\x85\xa0\u2028#%"), max_size=4)

# One value per record is drawn from the edge cases and the rest stay plain,
# so that about a quarter of the examples pass validation and round-trip.
_EDGY_VALUES = {
    "title": _edgy_text,
    "authors": st.lists(_edgy_text, max_size=3).map(tuple),
    "year": st.integers(1899, 2101),
    "venue": st.none() | _edgy_text,
    "keywords": st.sets(_edgy_text, max_size=3).map(lambda kws: tuple(sorted(kws))),
    "references": st.lists(st.integers(-1, 2), max_size=2, unique=True).map(tuple),
    "abstract": st.none() | _edgy_text,
}


@st.composite
def _edgy_records(draw):
    records = []
    for pid in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(_EDGY_VALUES)))
        records.append(rec(pid)._replace(**{name: draw(_EDGY_VALUES[name])}))
    return records


@given(_edgy_records())
@settings(max_examples=400, deadline=None)
def test_every_corpus_the_constructor_accepts_round_trips(records):
    try:
        corpus = corpus_of(*records)
    except ValueError:
        return
    text = serialize_corpus(corpus)
    for source in (text, text.encode("utf-8")):
        reparsed, report = parse_corpus(source, corpus.taxonomy, strictness=STRICT)
        assert not report.diagnostics
        assert reparsed == corpus


@pytest.mark.parametrize("records, message", [
    ([rec(1, refs=(2.0,)), rec(2)], "paper 1 references (2.0,) re-parses as ()"),
    ([rec(1, refs=("2",)), rec(2)], "paper 1 references ('2',) re-parses as (2,)"),
    ([rec(1), rec(2)._replace(id=5.0)],
     "paper 5.0 would be skipped on re-parse: malformed-index: bad paper id '5.0'"),
    ([rec(2), rec(3)._replace(id=True)],
     "paper True would be skipped on re-parse: malformed-index: bad paper id 'True'"),
    ([rec(1), rec(2, year=2000.0)],
     "paper 2 would be skipped on re-parse: malformed-year: missing or out-of-range year '2000.0'"),
    # The blank line makes "b" a block of its own, second in the file: the
    # message still names paper 1.
    ([rec(1, abstract="a\n\nb"), rec(2)], "paper 1 abstract 'a\\n\\nb' re-parses as 'a'"),
    # Values the writer cannot write at all.
    ([rec(1), rec(2)._replace(id="x")], "paper id 'x' is not an int and does not sort"),
    ([rec(1, authors=(5,))], "paper 1 author 5 is not a str"),
    ([rec(1, keywords=(5,))], "paper 1 keyword 5 is not a str"),
    ([rec(1, fields=("a",))], "paper 1 field 'a' is not an int index"),
    ([rec(1)._replace(keywords=5)], "paper 1 keywords 5 is not a tuple of str"),
    ([rec(1)._replace(keywords=None)], "paper 1 keywords None is not a tuple of str"),
    # Keywords the writer can write but that do not read back as a tuple.
    ([rec(1)._replace(keywords=["a"])], "paper 1 keywords ['a'] re-parses as ('a',)"),
    ([rec(1)._replace(keywords=frozenset({"a"}))],
     "paper 1 keywords frozenset({'a'}) re-parses as ('a',)"),
], ids=["float-reference", "string-reference", "float-id", "bool-id", "float-year",
        "blank-line-first", "string-id", "int-author", "int-keyword", "string-field",
        "int-keywords", "none-keywords", "list-keywords", "frozenset-keywords"])
def test_corpus_rejects_ids_years_and_references_that_do_not_re_parse(records, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus_of(*records)


def _in_file_order(batches, _taxonomy):
    return [record for batch in batches for record in corpusio._records(*batch)]


_in_file_order.columns = PaperRecord._fields


def _round_trips(records) -> bool:
    """True when the ids are distinct and each record, written on its own,
    reads back as that record and nothing else."""
    taxonomy = FieldTaxonomy.default()
    if len({r.id for r in records}) != len(records):
        return False
    return all(
        parse_corpus(serialize_record(r, taxonomy), taxonomy, into=_in_file_order)[0] == [r]
        for r in records
    )


_some_ids = st.integers(-1, 2) | st.integers(0, 2).map(float) | st.booleans()

# _EDGY_VALUES plus ids, years and references of the wrong type that equal
# an int or print like one.
_WIDE_VALUES = {
    **_EDGY_VALUES,
    "id": _some_ids | st.floats(-1, 3),
    "year": _EDGY_VALUES["year"] | st.integers(1899, 2101).map(float),
    "references": st.lists(
        _some_ids | st.floats(-1, 3) | st.integers(-1, 2).map(str), max_size=2, unique=True,
    ).map(tuple),
}


@st.composite
def _wide_records(draw):
    records = []
    for pid in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(_WIDE_VALUES)))
        records.append(rec(pid)._replace(**{name: draw(_WIDE_VALUES[name])}))
    return records


@given(_wide_records())
@settings(max_examples=400, deadline=None)
def test_the_constructor_accepts_exactly_the_records_that_round_trip(records):
    try:
        corpus_of(*records)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == _round_trips(records)


def test_paper_record_is_immutable_and_compares_by_value():
    a = rec(1, keywords=("x", "y"), refs=(3, 4))
    b = rec(1, keywords=("y", "x"), refs=(3, 4))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != rec(1, keywords=("x",), refs=(3, 4))
    with pytest.raises(AttributeError):
        a.year = 1999
    with pytest.raises(AttributeError):
        a.extra = 1
    assert isinstance(a, PaperRecord) and a.keywords == ("x", "y")
