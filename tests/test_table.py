"""The column table's two builders: ``PaperTable.reader`` on the parser's
columns and ``Corpus.table`` on built records. Both hold each value once,
keep references ascending and agree column by column."""

from __future__ import annotations

from hypothesis import example, given, settings

from citefields import Corpus, GeneratorSpec, build_graph, generate, parse_corpus
from citefields.records import PaperTable
from test_kernels import _corpus_files

OPTIONAL = ("references", "venue", "first_author", "authors", "keywords")


def _with_dangling_references(text: str) -> str:
    """``text`` with two dangling references added to every seventh block."""
    header, *blocks = text.split("\n\n")
    for i in range(0, len(blocks), 7):
        lines = blocks[i].split("\n")
        at = next(n for n, line in enumerate(lines) if line.startswith("#index")) + 1
        lines[at:at] = [f"#%{900_000 + i}", f"#%{900_001 + i}"]
        blocks[i] = "\n".join(lines)
    return "\n\n".join([header, *blocks])


def _tables(text: str) -> dict[str, PaperTable]:
    table, _report = parse_corpus(text, into=PaperTable.reader(*OPTIONAL))
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
    text = _with_dangling_references(generate(spec))
    for builder, table in _tables(text).items():
        assert len(table) == 600, builder
        _assert_one_object_per_value(table.venue.values())
        _assert_one_object_per_value(table.first_author.values())
        _assert_one_object_per_value(table.authors.values())
        _assert_one_object_per_value(key for keys in table.authors.values() for key in keys)
        _assert_one_object_per_value(word for words in table.keywords.values() for word in words)
        assert len(set(table.venue.values())) == 3, builder

        ids = {pid: pid for pid in table.year}
        dangling = {pid: sum(rid not in ids for rid in refs)
                    for pid, refs in table.references.items()}
        dangling = {pid: count for pid, count in dangling.items() if count}
        assert list(dangling) == list(table.year)[::7], builder
        graph = build_graph(table)
        assert dict(graph.unresolved) == dangling, builder
        for pid, refs in table.references.items():
            assert list(refs) == sorted(refs), (builder, pid)
            if pid in dangling:
                assert graph.out_edges[pid] == tuple(rid for rid in refs if rid in ids)
            else:
                assert graph.unresolved[pid] == 0, (builder, pid)
                assert graph.out_edges[pid] is refs, (builder, pid)
                # Each reference is the cited paper's own id object.
                assert all(ids[rid] is rid for rid in refs), (builder, pid)


@given(data=_corpus_files())
@settings(max_examples=60, deadline=None)
@example(data=b"#*B\n#@Ann Lee\n#t1975\n#c V1 \n#fAI\n#kx,X , y\n#index9\n#%9\n#%200\n#%3\n#%3\n\n"
              b"#*A\n#@ ann lee ,Bo Kim\n#t1970\n#cV1\n#fAI,NETW\n#index3\n#%9\n#%1\n")
def test_the_two_builders_agree_column_by_column(data):
    tables = _tables(data.decode("utf-8"))
    reader, corpus = tables["reader"], tables["corpus"]
    assert reader.taxonomy == corpus.taxonomy
    for name in PaperTable.__slots__[1:]:
        a, b = getattr(reader, name), getattr(corpus, name)
        assert list(a) == list(b) == sorted(a), name
        if name == "keywords":  # read as sets; the reader keeps a repeat
            assert {pid: set(v) for pid, v in a.items()} == {pid: set(v) for pid, v in b.items()}
        else:
            assert a == b, name
    for table in tables.values():
        for refs in table.references.values():
            assert all(x < y for x, y in zip(refs, refs[1:])), refs
