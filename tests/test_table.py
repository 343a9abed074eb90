"""The column table's two builders: ``PaperTable.reader`` on the parser's
columns and ``Corpus.table`` on built records. Both hold each value once,
keep references ascending and agree column by column. The table refuses a
repeated id and a column of another length, and its rows ascend with the
ids, its references and in-edges over them."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from citefields import (
    Corpus, FieldTaxonomy, GeneratorSpec, build_graph, generate, parse_corpus,
)
from citefields.records import PaperTable
from conftest import with_dangling_references
from test_kernels import _corpus_files

def _tables(text: str) -> dict[str, PaperTable]:
    table, _report = parse_corpus(text, into=PaperTable.reader(*PaperTable.COLUMNS))
    parsed, _report = parse_corpus(text)
    return {"reader": table, "corpus": Corpus(parsed.records.values(), parsed.taxonomy).table}


def _assert_one_object_per_value(values) -> None:
    values = [value for value in values if value is not None]
    assert len({id(value) for value in values}) == len(set(values))


def test_repeated_values_are_held_once_and_references_are_shared():
    # Eight authors, three venues and ten keywords per field over 600
    # papers: every value repeats.
    spec = GeneratorSpec(seed=4, field_count=3, years_span=20, papers_per_year=(30, 30),
                         author_pool_size=8, venue_count=3, keyword_pool_size=10)
    text = with_dangling_references(generate(spec))
    parsed, _report = parse_corpus(text)
    for builder, table in _tables(text).items():
        assert len(table) == 600, builder
        _assert_one_object_per_value(table.venue)
        _assert_one_object_per_value(table.first_author)
        _assert_one_object_per_value(table.authors)
        _assert_one_object_per_value(key for keys in table.authors for key in keys)
        _assert_one_object_per_value(word for words in table.keywords for word in words)
        assert len(set(table.venue)) == 3, builder

        # Every seventh paper has its two dangling references dropped and counted.
        assert dict(table.unresolved) == dict.fromkeys(range(0, 600, 7), 2), builder
        assert build_graph(table) is table
        for r, refs in enumerate(table.references):
            assert list(refs) == sorted(refs), (builder, r)
            cited = parsed[table.ids[r]].references
            assert [table.ids[c] for c in refs] == sorted(pid for pid in cited if pid in parsed)
            assert table.unresolved[r] == len(cited) - len(refs), (builder, r)
            # Each reference is the cited paper's own row object.
            assert all(table.row[table.ids[c]] is c for c in refs), (builder, r)


@given(data=_corpus_files())
@settings(max_examples=60, deadline=None)
@example(data=b"#*B\n#@Ann Lee\n#t1975\n#c V1 \n#fAI\n#kx,X , y\n#index9\n#%9\n#%200\n#%3\n#%3\n\n"
              b"#*A\n#@ ann lee ,Bo Kim\n#t1970\n#cV1\n#fAI,NETW\n#index3\n#%9\n#%1\n")
def test_the_two_builders_agree_column_by_column(data):
    tables = _tables(data.decode("utf-8"))
    reader, corpus = tables["reader"], tables["corpus"]
    assert reader.taxonomy == corpus.taxonomy
    assert reader.ids == corpus.ids == sorted(reader.ids)
    for name in PaperTable.__slots__[2:]:
        a, b = getattr(reader, name), getattr(corpus, name)
        if name == "keywords":  # read as sets; the reader keeps a repeat
            assert list(map(set, a)) == list(map(set, b))
        else:
            assert a == b, name
    for table in tables.values():
        for refs in table.references:
            assert all(x < y for x, y in zip(refs, refs[1:])), refs


def _columns(n: int) -> dict[str, list]:
    return {"year": [2000] * n, "fields": [frozenset({0})] * n}


def test_a_repeated_id_is_refused():
    for ids, repeated in (([1, 1, 2], 1), ([2, 1, 2], 2)):
        with pytest.raises(ValueError, match=f"paper id {repeated} repeats"):
            PaperTable(FieldTaxonomy.default(), ids, **_columns(3))


def test_a_column_of_another_length_than_the_ids_is_refused():
    for name in ("year", "fields", "references"):
        columns = {**_columns(3), "references": [(2, 3), (3,), ()]}
        columns[name] = columns[name][:2]
        with pytest.raises(ValueError, match=f"column '{name}' holds 2 values for 3 ids"):
            PaperTable(FieldTaxonomy.default(), [1, 2, 3], **columns)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_rows_ascend_and_the_graph_inverts_the_resolved_references(data):
    ids = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12), label="ids")
    cited = st.integers(0, 10**6) if not ids else st.sampled_from(ids) | st.integers(0, 10**6)
    references = [tuple(sorted(data.draw(st.sets(cited, max_size=5)))) for _ in ids]
    table = PaperTable(FieldTaxonomy.default(), list(ids), **_columns(len(ids)),
                       references=list(references))
    assert build_graph(table) is table

    assert table.ids == sorted(ids)
    assert all(table.row[pid] == r for r, pid in enumerate(table.ids))
    given_refs = dict(zip(ids, references))
    for r, rows in enumerate(table.references):
        assert list(rows) == sorted(set(rows))
        assert all(type(c) is int and 0 <= c < len(ids) for c in rows)
        assert [table.ids[c] for c in rows] == [pid for pid in given_refs[table.ids[r]]
                                                if pid in table.row]
    inverted: list[list[int]] = [[] for _ in ids]
    for r, rows in enumerate(table.references):
        for c in rows:
            inverted[c].append(r)
    assert table.in_edges == list(map(tuple, inverted))
    assert table.total_edges + sum(table.unresolved.values()) == sum(map(len, references))
