"""Reader/writer tests: golden parse, diagnostics, strict/lenient, round-trip."""

import contextlib
import gc
import io
from collections import deque
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from citefields import (
    Corpus, FieldTaxonomy, GeneratorSpec, LENIENT, PaperRecord, ParseError, ParseReport, STRICT,
    generate, parse_corpus, serialize_corpus,
)
from citefields import cli, corpusio
from citefields.records import PaperTable
from conftest import GOLDEN_RECORD, corpus_of, rec
from oracles import normalize_keyword, parse_lines_direct


def test_golden_record_parses_to_exact_values(golden_text, taxonomy):
    corpus, report = parse_corpus(golden_text, taxonomy, strictness=STRICT)
    assert report.blocks == 1
    assert report.parsed == 1
    assert not report.diagnostics
    paper = corpus[134672]
    assert paper.year == 2007
    assert paper.venue == "DAC"
    assert paper.authors == ("Lei Cheng", "Deming Chen", "Martin D. F. Wong")
    assert paper.fields == frozenset({taxonomy.index_of("Computer Architecture")})
    assert len(paper.keywords) == 10
    assert len(paper.references) == 9
    assert paper.references[0] == 233644
    assert paper.abstract.startswith("In 90-nm technology")


def test_empty_input_gives_empty_corpus():
    corpus, report = parse_corpus("", strictness=STRICT)
    assert len(corpus) == 0
    assert report.blocks == 0
    assert report.parsed == 0
    assert not report.diagnostics


def test_blank_lines_only_input():
    corpus, report = parse_corpus("\n\n   \n\n")
    assert len(corpus) == 0
    assert report.blocks == 0


def _three_records(middle_index_line: str = "") -> str:
    blocks = []
    for i, extra in ((1, "#index1"), (2, middle_index_line), (3, "#index3")):
        lines = [f"#*Title {i}", "#@A One", "#t2001", "#fDatabases"]
        if extra:
            lines.append(extra)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def test_missing_index_lenient_skips_and_counts():
    corpus, report = parse_corpus(_three_records())
    assert report.blocks == 3
    assert report.parsed == 2
    assert report.skipped == 1
    assert len(corpus) == 2
    errors = report.errors()
    assert len(errors) == 1
    assert errors[0].code == "missing-index"
    assert errors[0].record == 2


def test_missing_index_strict_aborts():
    with pytest.raises(ParseError) as exc_info:
        parse_corpus(_three_records(), strictness=STRICT)
    assert exc_info.value.diagnostic.code == "missing-index"


def test_parsed_plus_skipped_equals_blocks():
    text = _three_records() + "\n\n#*Junk\n#t9999\n#fDatabases\n#index9\n"
    corpus, report = parse_corpus(text)
    assert report.parsed + report.skipped == report.blocks == 4


@pytest.mark.parametrize(
    "mutation, code",
    [
        ("#t20x7", "malformed-year"),
        ("#t1776", "malformed-year"),
        ("#t1899", "malformed-year"),
        ("#t2101", "malformed-year"),
        ("", "malformed-year"),  # no #t line at all
        # int() takes these spellings; a year is ASCII digits only.
        ("#t2_000", "malformed-year"),
        ("#t+2000", "malformed-year"),
        ("#t\u0662\u0660\u0660\u0660", "malformed-year"),
    ],
)
def test_year_problems(mutation, code):
    lines = ["#*T", "#fDatabases", "#index5"]
    if mutation:
        lines.insert(1, mutation)
    corpus, report = parse_corpus("\n".join(lines))
    assert len(corpus) == 0
    assert report.errors()[0].code == code


@pytest.mark.parametrize("spelling", ["1_0", "+5", "\u0663", "-4", "5 5"])
def test_index_spellings_other_than_ascii_digits_are_malformed(spelling):
    text = f"#*A\n#t2000\n#fDatabases\n#index{spelling}\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 0
    [error] = report.errors()
    assert (error.code, error.message) == ("malformed-index", f"bad paper id {spelling!r}")
    with pytest.raises(ParseError):
        parse_corpus(text, strictness=STRICT)


@pytest.mark.parametrize("spelling", ["1_0", "+5", "\u0663", "-3", ""])
def test_reference_spellings_other_than_ascii_digits_are_dropped(spelling):
    text = f"#*A\n#t2000\n#fDatabases\n#index7\n#%4\n#%{spelling}\n#%008\n"
    corpus, report = parse_corpus(text, strictness=STRICT)
    assert corpus[7].references == (4, 8)
    [warning] = report.diagnostics
    assert (warning.line, warning.code) == (6, "malformed-reference")


def test_sane_year_bounds_are_inclusive():
    text = "#*T\n#t1900\n#fDatabases\n#index5\n\n#*U\n#t2100\n#fDatabases\n#index6\n"
    corpus, report = parse_corpus(text)
    assert (corpus[5].year, corpus[6].year) == (1900, 2100)
    assert report.diagnostics == []


def test_duplicate_id_skips_later_record():
    text = "#*A\n#t2000\n#fDatabases\n#index7\n\n#*B\n#t2001\n#fDatabases\n#index7\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 1
    assert corpus[7].title == "A"
    assert report.errors()[0].code == "duplicate-id"


def test_duplicate_id_found_near_or_far_from_the_ids_seen():
    # 1000 is far beyond the first ids seen, 99999999999999 always is; the
    # ids in between grow the range past 1000 before its copy comes.
    ids = [1000, 99999999999999, *range(1, 21), 1001, 1000, 99999999999999, 7]
    text = "\n".join(f"#*P\n#t2000\n#fAI\n#index{pid}\n" for pid in ids)
    corpus, report = parse_corpus(text)
    assert sorted(corpus) == sorted(set(ids))
    assert [(d.record, d.code) for d in report.diagnostics] == [
        (24, "duplicate-id"), (25, "duplicate-id"), (26, "duplicate-id")]


# One run of three blocks (the empty line after the last ends it within
# the run): the second pads its id, which the third repeats.
PADDED_ID_REPEATED = (b"#*A\n#t2000\n#fAI\n#index1\n\n#*B\n#t2000\n#fAI\n#index 2\t\n\n"
                      b"#*C\n#t2001\n#fAI\n#index2\n\n")


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("build", [True, False])
def test_padded_id_repeated_in_its_run_is_a_duplicate(build, strict):
    """The run screen reads an id as finish() does, stripped, so the copy
    of a padded id later in the same run is a duplicate."""
    records, counts, diagnostics, error = _outcome(
        lambda *args: (corpusio._parse if build else _ids)(PADDED_ID_REPEATED, *args), strict)
    duplicate = corpusio.Diagnostic(14, 3, "error", "duplicate-id", "paper id 2 already seen")
    if build:
        assert [(r.id, r.title) for r in records] == [(1, "A"), (2, "B")]
    else:
        assert records == [1, 2]
    assert counts == ((3, 2, 0) if strict else (3, 2, 1))
    assert diagnostics == [duplicate]
    assert error == (duplicate if strict else None)


def test_missing_field_line_lenient_skips_strict_aborts():
    text = "#*A\n#t2000\n#index7\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 0
    assert report.errors()[0].code == "missing-fields"
    with pytest.raises(ParseError):
        parse_corpus(text, strictness=STRICT)


def test_unknown_field_lenient_drops_label_keeps_record():
    text = "#*A\n#t2000\n#fUnderwater Basket Weaving,Databases\n#index7\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 1
    tax = FieldTaxonomy.default()
    assert corpus[7].fields == frozenset({tax.index_of("DB")})
    assert report.warnings()[0].code == "unknown-field"


def test_unknown_field_lenient_all_dropped_skips_record():
    text = "#*A\n#t2000\n#fUnderwater Basket Weaving\n#index7\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 0
    assert report.errors()[0].code == "no-valid-fields"


def test_unknown_field_strict_aborts():
    text = "#*A\n#t2000\n#fUnderwater Basket Weaving,Databases\n#index7\n"
    with pytest.raises(ParseError) as exc_info:
        parse_corpus(text, strictness=STRICT)
    assert exc_info.value.diagnostic.code == "unknown-field"


def test_repeated_field_lines_and_comma_list_both_accepted():
    by_lines = "#*A\n#t2000\n#fDatabases\n#fData Mining\n#index1\n"
    by_comma = "#*A\n#t2000\n#fDatabases,Data Mining\n#index2\n"
    c1, _ = parse_corpus(by_lines)
    c2, _ = parse_corpus(by_comma)
    assert c1[1].fields == c2[2].fields
    assert len(c1[1].fields) == 2


def test_duplicate_and_self_references_repaired_with_warnings():
    text = "#*A\n#t2000\n#fDatabases\n#index7\n#%3\n#%3\n#%7\n#%4\n"
    corpus, report = parse_corpus(text)
    assert corpus[7].references == (3, 4)
    codes = {d.code for d in report.warnings()}
    assert codes == {"duplicate-reference", "self-reference"}
    # warnings never abort strict mode
    corpus2, _ = parse_corpus(text, strictness=STRICT)
    assert corpus2[7].references == (3, 4)


def test_author_list_trimmed_and_empties_dropped():
    text = "#*A\n#@ Jo Coder , ,Max Dev \n#t2000\n#fDatabases\n#index7\n"
    corpus, _ = parse_corpus(text)
    assert corpus[7].authors == ("Jo Coder", "Max Dev")


def test_keyword_normalization_casefolds_and_collapses_whitespace():
    text = "#*A\n#t2000\n#fDatabases\n#kData   Mining, data mining , QUERY\n#index7\n"
    corpus, _ = parse_corpus(text)
    assert corpus[7].keywords == ("data mining", "query")


def test_unrecognized_line_warned_and_ignored():
    text = "#*A\n#t2000\nnot a tagged line\n#fDatabases\n#index7\n"
    corpus, report = parse_corpus(text)
    assert len(corpus) == 1
    assert report.warnings()[0].code == "unknown-line"


def test_comment_lines_skipped():
    text = "%% generated header\n%% more\n\n#*A\n#t2000\n#fDatabases\n#index7\n"
    corpus, report = parse_corpus(text, strictness=STRICT)
    assert len(corpus) == 1
    assert report.blocks == 1


def test_parse_from_binary_and_text_streams(golden_text):
    c1, _ = parse_corpus(io.BytesIO(golden_text.encode("utf-8")))
    c2, _ = parse_corpus(io.StringIO(golden_text))
    assert c1 == c2
    assert len(c1) == 1


@pytest.mark.parametrize("enabled, text", [
    (True, GOLDEN_RECORD),
    (True, "#*No index\n#t2000\n#fDatabases\n"),
    (False, GOLDEN_RECORD),
], ids=["enabled-return", "enabled-parse-error", "disabled"])
def test_parse_pauses_gc_and_restores_its_state(enabled, text):
    seen = []  # collector state as each line is read

    def lines():
        for line in text.splitlines(keepends=True):
            seen.append(gc.isenabled())
            yield line

    before = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        error = "#index" not in text
        with pytest.raises(ParseError) if error else contextlib.nullcontext():
            parse_corpus(lines(), strictness=STRICT)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if before else gc.disable()
    assert seen and not any(seen)


def test_round_trip_golden_is_byte_stable(golden_text, taxonomy):
    corpus, _ = parse_corpus(golden_text, taxonomy, strictness=STRICT)
    once = serialize_corpus(corpus)
    corpus2, report2 = parse_corpus(once, taxonomy, strictness=STRICT)
    assert corpus2 == corpus
    assert not report2.diagnostics
    assert serialize_corpus(corpus2) == once


def test_record_order_in_file_does_not_matter(golden_text):
    a = "#*A\n#t2000\n#fDatabases\n#index2\n#%1\n"
    b = "#*B\n#t2001\n#fData Mining\n#index1\n"
    c1, _ = parse_corpus(a + "\n" + b)
    c2, _ = parse_corpus(b + "\n" + a)
    assert c1 == c2
    assert list(c1) == [1, 2]


_name = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" .-"),
    min_size=1, max_size=24,
).map(lambda s: " ".join(s.split())).filter(bool)


@st.composite
def _records(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    taxonomy = FieldTaxonomy.default()
    records = []
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    for pid in ids:
        fields = draw(st.sets(st.integers(0, len(taxonomy) - 1), min_size=1, max_size=3))
        refs = draw(st.lists(
            st.integers(0, 10_000).filter(lambda r, p=pid: r != p),
            max_size=5, unique=True,
        ))
        keywords = tuple(sorted(draw(st.sets(_name.map(str.casefold), max_size=5))))
        authors = tuple(draw(st.lists(_name, max_size=3)))
        records.append(rec(
            pid,
            year=draw(st.integers(1950, 2050)),
            fields=fields,
            refs=tuple(refs),
            keywords=keywords,
            authors=authors,
            venue=draw(st.one_of(st.none(), _name)),
            title=draw(_name),
            abstract=draw(st.one_of(st.none(), _name)),
        ))
    return records


@given(_records())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(records):
    corpus = corpus_of(*records)
    text = serialize_corpus(corpus)
    reparsed, report = parse_corpus(text, corpus.taxonomy, strictness=STRICT)
    assert report.parsed == len(records)
    assert reparsed == corpus
    assert serialize_corpus(reparsed) == text


# Record 2's title (line 6) holds byte 0xff, which is not UTF-8.
UNDECODABLE = (b"#*First\n#t2000\n#fDatabases\n#index1\n\n"
               b"#*Bad \xff title\n#t2001\n#fDatabases\n#index2\n")


@pytest.mark.parametrize("source", [UNDECODABLE, io.BytesIO(UNDECODABLE)])
def test_undecodable_line_lenient_skips_only_its_record(source):
    corpus, report = parse_corpus(source)
    assert list(corpus) == [1]
    assert (report.blocks, report.parsed, report.skipped) == (2, 1, 1)
    [d] = report.diagnostics
    assert (d.line, d.record, d.severity, d.code) == (6, 2, "error", "encoding")


def test_undecodable_line_strict_aborts():
    with pytest.raises(ParseError) as exc_info:
        parse_corpus(UNDECODABLE, strictness=STRICT)
    d = exc_info.value.diagnostic
    assert (d.line, d.record, d.code) == (6, 2, "encoding")


# Latin-1 comment lines (not UTF-8): before record 1, between the records
# and inside record 2.
LATIN1_COMMENTS = (b"%% caf\xe9\n#*First\n#t2000\n#fDatabases\n#index1\n\n%% r\xe9sum\xe9\n\n"
                   b"#*Second\n%% na\xefve\n#t2001\n#fDatabases\n#index2\n")


@pytest.mark.parametrize("strictness", [LENIENT, STRICT])
def test_undecodable_comment_lines_are_skipped(strictness):
    corpus, report = parse_corpus(LATIN1_COMMENTS, strictness=strictness)
    assert list(corpus) == [1, 2]
    assert (report.blocks, report.parsed, report.skipped) == (2, 2, 0)
    assert not report.diagnostics


# Comment lines before the first block and inside both blocks, before and
# between their tags, each inside one followed by a line that gives a
# diagnostic: record 1's unknown lines (4 and 7) and record 2's bad year
# (13). The Latin-1 comments are not UTF-8; the second input spells them
# in UTF-8.
COMMENTS_INSIDE_BLOCKS = (b"%% caf\xe9\n#*First\n%% note\nstray line\n#t2000\n%% r\xe9sum\xe9\n"
                          b"#bogus\n#fDatabases\n#index1\n\n#*Second\n%% na\xefve\n#t19x0\n"
                          b"%% later\n#fDatabases\n#index2\n")


@pytest.mark.parametrize("data", [
    COMMENTS_INSIDE_BLOCKS, COMMENTS_INSIDE_BLOCKS.decode("latin-1").encode("utf-8")])
def test_comment_lines_inside_a_block_keep_its_line_numbers(data):
    for strict in (False, True):
        _records, _counts, diagnostics, error = _outcome(
            lambda *args: corpusio._parse(data, *args), strict)
        assert [(d.line, d.record, d.code) for d in diagnostics] == [
            (4, 1, "unknown-line"), (7, 1, "unknown-line"), (13, 2, "malformed-year")]
        assert error == (diagnostics[-1] if strict else None)
    for chunk_size in (None, 1, 7):
        _check_against_the_oracle(data, chunk_size)


@st.composite
def _fuzz_input(draw) -> bytes:
    """Arbitrary bytes, or a valid corpus truncated, line-shuffled or spliced with bytes."""
    kind = draw(st.sampled_from(("bytes", "truncated", "shuffled", "spliced")))
    if kind == "bytes":
        return draw(st.binary(max_size=400))
    text = serialize_corpus(corpus_of(*draw(_records()))).encode("utf-8")
    cut = draw(st.integers(0, len(text)))
    if kind == "truncated":
        return text[:cut]
    if kind == "shuffled":
        return b"\n".join(draw(st.permutations(text.split(b"\n"))))
    return text[:cut] + draw(st.binary(min_size=1, max_size=20)) + text[cut:]


@given(_fuzz_input())
@settings(max_examples=200, deadline=None)
def test_fuzzed_input_gives_diagnostics_not_crashes(data):
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    _corpus, report = parse_corpus(data)
    assert report.parsed + report.skipped == report.blocks
    assert all(1 <= d.line <= lines for d in report.diagnostics)
    try:
        _corpus, strict = parse_corpus(data, strictness=STRICT)
    except ParseError as exc:
        assert 1 <= exc.diagnostic.line <= lines
    else:
        assert strict.skipped == 0
        assert strict.parsed == strict.blocks


@given(_fuzz_input(), st.sampled_from((1, 7, 64)))
@settings(max_examples=200, deadline=None)
def test_chunk_size_does_not_change_the_parse(data, chunk_size):
    """Chunks cut anywhere (inside a line, a CRLF or a UTF-8 sequence) give
    the same corpus and diagnostics as the default chunk and as lines
    decoded one at a time."""
    want = parse_corpus(data)
    assert parse_corpus(list(io.BytesIO(data))) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpusio, "CHUNK_SIZE", chunk_size)
        assert parse_corpus(data) == want
        assert parse_corpus(io.BytesIO(data)) == want


# One change to one block of a canonical corpus, each a reason for the
# block to leave the pattern's path or to give a diagnostic on it.
_MUTATIONS = ("drop", "double", "move", "crlf", "blank", "comment", "pad",
              "bad-index", "bad-year", "bad-reference", "no-final-newline",
              "keywords", "repeated-id")


def _mutate(draw, blocks: list[list[str]], lines: list[str], kind: str) -> None:
    """Apply the mutation ``kind`` to ``lines``, one of ``blocks``. The
    mutations of the whole text, "crlf" and "no-final-newline", are
    ``_joined``'s."""
    if not lines:  # earlier mutations dropped every line
        return
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[at]
    elif kind == "double":
        lines.insert(at, lines[at])
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from([" ", "\t", "\r", "\x0b"])))
    elif kind == "comment":
        lines.insert(at, "%% note")
    elif kind == "pad":
        tag = 6 if lines[at].startswith("#index") else 2
        lines[at] = f"{lines[at][:tag]} {lines[at][tag:]}\t"
    elif kind == "keywords":
        value = "#k" + draw(st.text(alphabet=" ,,abA-\t", max_size=12))
        where = [i for i, line in enumerate(lines) if line.startswith(("#k", "#index"))]
        if where:
            lines[where[0]:where[0] + lines[where[0]].startswith("#k")] = [value]
    elif kind == "repeated-id":
        copy = [line for line in draw(st.sampled_from(blocks)) if line.startswith("#index")]
        where = [i for i, line in enumerate(lines) if line.startswith("#index")]
        if copy and where:
            lines[where[0]] = copy[0]
    else:
        bad = {"bad-index": ("#index", ["1_0", "+5", "x", "", "\u0663"]),
               "bad-year": ("#t", ["19x0", "", "99999", "\u0662000"]),
               "bad-reference": ("#%", ["+5", "x", "", "1_0", "\u0663"])}.get(kind)
        if bad is not None:
            prefix, values = bad
            value = prefix + draw(st.sampled_from(values))
            where = [i for i, line in enumerate(lines) if line.startswith(prefix)]
            if where and prefix != "#%":
                lines[where[0]] = value
            else:
                lines.insert(at, value)


def _joined(blocks: list[list[str]], kinds: list[str]) -> bytes:
    text = "\n\n".join("\n".join(block) for block in blocks) + "\n"
    if "crlf" in kinds:
        text = text.replace("\n", "\r\n")
    elif "no-final-newline" in kinds:
        text = text.rstrip("\n")
    return text.encode("utf-8")


def _blocks(draw) -> list[list[str]]:
    """The lines of each block of a serialized corpus, most of them with the
    #f line of the first: a block whose #f text is new is finish()'s, so
    only a repeated text lets a block pass the screen."""
    text = serialize_corpus(corpus_of(*draw(_records())))
    blocks = [block.split("\n") for block in text.rstrip("\n").split("\n\n")]
    shared = next(line for line in blocks[0] if line.startswith("#f"))
    for block in blocks[1:]:
        if not draw(st.booleans()):
            block[:] = [shared if line.startswith("#f") else line for line in block]
    return blocks


@st.composite
def _mutated_canonical(draw) -> bytes:
    """A serialized corpus with one mutation in one of its blocks."""
    blocks = _blocks(draw)
    kind = draw(st.sampled_from(_MUTATIONS))
    _mutate(draw, blocks, draw(st.sampled_from(blocks)), kind)
    return _joined(blocks, [kind])


@st.composite
def _runs_cut_in_many_places(draw) -> bytes:
    """The blocks of two serialized corpora in shuffled order, with 2 to 4
    mutations in any blocks and one block given the id of an earlier one
    (of the same run unless a mutation cuts it): runs of matched blocks are
    cut in several places and sit next to blocks that finish() takes.

    The k-th block's id is redrawn from 2k to 2k + 3, so that ids mostly
    ascend but some repeat or fall, and the seen-id bitmap holds them; half
    the references are redrawn below 16, so that some name their own block
    or repeat."""
    small = st.integers(0, 15)
    blocks = [
        [f"#index{draw(st.integers(2 * k, 2 * k + 3))}" if line.startswith("#index")
         else f"#%{draw(small)}" if line.startswith("#%") and draw(st.booleans()) else line
         for line in block]
        for k, block in enumerate(draw(st.permutations(_blocks(draw) + _blocks(draw))))
    ]
    at = draw(st.integers(1, len(blocks) - 1))
    earlier = blocks[draw(st.integers(0, at - 1))]
    index = next(i for i, line in enumerate(blocks[at]) if line.startswith("#index"))
    blocks[at][index] = next(line for line in earlier if line.startswith("#index"))
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=2, max_size=4))
    for kind in kinds:
        _mutate(draw, blocks, draw(st.sampled_from(blocks)), kind)
    return _joined(blocks, kinds)


# The fold consumers of the CLI's parses, each once: every consumer
# ``cli._ANALYSES`` names that is not a table's columns.
FOLDS = tuple(dict.fromkeys(into for into, _run in cli._ANALYSES.values()
                            if not isinstance(into, tuple)))
# The columns each fold reads, and the ids alone, apart from a Corpus's nine.
CONSUMER_COLUMNS = (*(fold.columns for fold in FOLDS), ("id",))


def test_every_consumer_names_record_columns_only():
    assert len(FOLDS) == 3
    for into in (*FOLDS, PaperTable.reader(*PaperTable.__slots__[6:])):
        assert set(into.columns) <= set(PaperRecord._fields), into.columns


def _ids(source, *args):
    """The ids of the accepted blocks of ``source``, read as the one column
    of a parse."""
    return chain.from_iterable(ids for ids, in corpusio._batches(source, *args, ("id",)))


def _column(record, name: str):
    """The value a parse gives in the column ``name`` for the block of
    ``record``, keywords as their count (see ``_counted``)."""
    return len(record.keywords) if name == "keywords" else getattr(record, name)


def _counted(batch: tuple, columns: tuple[str, ...]) -> tuple:
    """``batch`` of ``columns`` with its keyword texts as the count of
    their distinct keywords."""
    return tuple(corpusio._keyword_counts(values) if name == "keywords" else values
                 for name, values in zip(columns, batch))


def _outcome(parse, strict: bool) -> tuple:
    """The records a parse gives, its block counts and diagnostics, and the
    diagnostic of the ParseError that ended it, if one did."""
    report = ParseReport()
    records = []
    error = None
    try:
        records.extend(parse(FieldTaxonomy.default(), strict, report))
    except ParseError as exc:
        error = exc.diagnostic
    return records, (report.blocks, report.parsed, report.skipped), report.diagnostics, error


@given(st.one_of(_fuzz_input(), _mutated_canonical()), st.sampled_from((1, 7, 64, None)))
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_line_loop_oracle(data, chunk_size):
    """Blocks matched whole and blocks read line by line give what the line
    loop alone gives, with chunks cut anywhere (None: the default size)."""
    _check_against_the_oracle(data, chunk_size)


def _crlf(data: bytes) -> bytes:
    """``data`` with each ``\\n`` spelled ``\\r\\n``."""
    return data.replace(b"\n", b"\r\n")


@given(st.one_of(_fuzz_input(), _mutated_canonical(), _runs_cut_in_many_places()).map(_crlf),
       st.sampled_from((1, 7, 64, None)))
@settings(max_examples=200, deadline=None)
def test_crlf_input_matches_the_line_loop_oracle(data, chunk_size):
    """CRLF line ends, read as LF, give what the line loop gives, which
    keeps each ``\\r`` and strips it from every value."""
    _check_against_the_oracle(data, chunk_size)


@given(_runs_cut_in_many_places())
@settings(max_examples=150, deadline=None)
# Found by this property: record 8 pads id 16, which record 9 repeats in
# the same run; a screen that read the padded id as no id accepted both.
@example(
    data=b"#t1950\n#fArtificial Intelligence\n#index0\n\n#*0\n#t1950\n#fArtificial Intelligence\n"
         b"#index0\n#%0\n#%2\n#%3\n#%4\n#%5\n\n#*0\n#t1950\n#fArtificial Intelligence\n#index4\n\n"
         b"#*0\n#t1950\n#fArtificial Intelligence\n#index8\n#%0\n\n#*0\n#t2050\n"
         b"#fArtificial Intelligence\n#index8\n#%0\n#%1\n#%2\n#%1226\n\n#*0\n#t1950\n"
         b"#fArtificial Intelligence\n#index10\n#%0\n#%1\n\n#*0\n#t1952\n"
         b"#fArtificial Intelligence\n#index12\n#%0\n#%1\n#%2\n#%3\n\n#*0\n#@0\n#t1950\n"
         b"#fArtificial Intelligence\n#index 16\t\n#%1\n#%2\n\n#*0\n#t1950\n"
         b"#fArtificial Intelligence\n#index16\n\n#*0\n#t1950\n#fArtificial Intelligence\n"
         b"#index18\n",
)
def test_parse_matches_the_oracle_with_runs_cut_in_many_places(data):
    for chunk_size in (1, 7, 64, None):
        _check_against_the_oracle(data, chunk_size)
    for run_blocks in (1, 2, 3):
        _check_against_the_oracle(data, None, run_blocks)


def _check_against_the_oracle(data: bytes, chunk_size: int | None,
                              run_blocks: int | None = None) -> None:
    """The records, report and ParseError of every parse of ``data`` equal
    the line loop oracle's, in both strictness modes (None: the default
    chunk size and run length), and so do the columns each consumer reads."""
    sources = [io.BytesIO(data)]
    with contextlib.suppress(UnicodeDecodeError):
        sources.append(data.decode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        if chunk_size is not None:
            mp.setattr(corpusio, "CHUNK_SIZE", chunk_size)
        if run_blocks is not None:
            mp.setattr(corpusio, "RUN_BLOCKS", run_blocks)
        for strict in (False, True):
            want = _outcome(lambda *args: parse_lines_direct(data, *args), strict)
            for source in sources:
                if hasattr(source, "seek"):
                    source.seek(0)
                got = _outcome(lambda *args: corpusio._parse(source, *args), strict)
                assert got == want
                # Without records: each consumer's columns hold the values of
                # the same records, with the same report or error.
                for columns in CONSUMER_COLUMNS:
                    if hasattr(source, "seek"):
                        source.seek(0)
                    batches, *rest = _outcome(
                        lambda *args: corpusio._batches(source, *args, columns), strict)
                    assert rest == list(want[1:])
                    assert all(len(batch) == len(columns) for batch in batches)
                    assert all(len({*map(len, batch)}) == 1 for batch in batches if columns)
                    if columns:
                        rows = [row for batch in batches for row in zip(*_counted(batch, columns))]
                        assert rows == [
                            tuple(_column(r, name) for name in columns) for r in want[0]]
                # The public entry point: the same records, report or error,
                # also with the consumer that builds no record.
                kept = []
                strictness = STRICT if strict else LENIENT

                def keep(batches, _taxonomy):
                    for batch in batches:
                        kept.extend(corpusio._records(*batch))

                keep.columns = PaperRecord._fields
                for into in (keep, corpusio.discard_records):
                    if hasattr(source, "seek"):
                        source.seek(0)
                    try:
                        _none, report = parse_corpus(source, strictness=strictness, into=into)
                    except ParseError as exc:
                        assert exc.diagnostic == want[3]
                    else:
                        assert want[3] is None
                        assert (report.blocks, report.parsed, report.skipped) == want[1]
                        assert report.diagnostics == want[2]
                assert kept == want[0]


def test_generated_corpus_is_built_a_run_at_a_time(monkeypatch):
    """finish() reads only the first block with each #f text, which fills
    its memo; every other block passes the screen and is built with its
    run's columns."""
    finished = []
    lines = corpusio._lines

    def counted(match):
        finished.append(match.group(5))
        return lines(match)

    monkeypatch.setattr(corpusio, "_lines", counted)
    text = generate(GeneratorSpec(seed=4, field_count=4, years_span=5, papers_per_year=(40, 40),
                                  multi_tag_probability=0.3))
    texts = [line[2:] for line in text.splitlines() if line.startswith("#f")]
    want = list(dict.fromkeys(texts))
    assert 4 < len(want) < len(texts) == 200
    for columns in (None, *CONSUMER_COLUMNS):
        finished.clear()
        report = ParseReport()
        args = (text, FieldTaxonomy.default(), True, report)
        deque(corpusio._parse(*args) if columns is None else corpusio._batches(*args, columns),
              maxlen=0)
        assert report.parsed == 200
        assert finished == want


def test_generated_corpus_reaches_no_line_loop(monkeypatch):
    """Every block the generator writes is matched whole: the only lines
    the line loop would read are its header comment and the empty lines."""
    items = corpusio._items

    def matched_blocks_only(source):
        for item in items(source):
            if type(item) is str and item and not item.startswith(corpusio.COMMENT_PREFIX):
                raise AssertionError(f"the line loop read {item!r}")
            yield item

    monkeypatch.setattr(corpusio, "_items", matched_blocks_only)
    text = generate(GeneratorSpec(seed=4, field_count=4, years_span=5, papers_per_year=(40, 40)))
    crlf = text.replace("\n", "\r\n")
    for source in (text, text.encode("utf-8"), crlf, crlf.encode("utf-8")):
        corpus, report = parse_corpus(source, strictness=STRICT)
        assert len(corpus) == report.parsed == report.blocks == 200
        assert not report.diagnostics


# Whitespace of categories Zs and Cc (a #k line cannot hold "\n"), commas,
# and letters whose case folding expands (sharp s, the fi ligature, dotted
# capital I) or depends on nothing around it (final sigma).
_keyword_text = st.text(
    alphabet=st.one_of(
        st.characters(whitelist_categories=("Zs", "Cc")).filter(
            lambda c: c.isspace() and c != "\n"),
        st.sampled_from(",,,abAB\u00df\u1e9e\ufb01\u0130\u03a3\u03c3\u03c2"),
    ),
    max_size=40,
)


@given(_keyword_text)
@settings(max_examples=300, deadline=None)
def test_keyword_line_matches_per_keyword_oracle(text):
    want = tuple(sorted({normalize_keyword(kw) for kw in text.split(",")} - {""}))
    record = f"#*T\n#t2000\n#fAI\n#k{text}\n#index1\n"
    for source in (record, record.encode("utf-8")):
        corpus, report = parse_corpus(source, strictness=STRICT)
        assert corpus[1].keywords == want
        assert not report.diagnostics


@given(st.lists(
    st.tuples(st.one_of(st.none(), _keyword_text, st.text(alphabet="ab ,", max_size=10)),
              st.one_of(st.none(), st.text(alphabet="ab ,\t", max_size=8))),
    min_size=2, max_size=5,
))
@settings(max_examples=300, deadline=None)
def test_keyword_and_author_columns_match_each_block_alone(values):
    """Blocks built with their run's columns get the keywords and authors
    their own texts give, whether or not another text of the column needs
    more than a split."""
    text = "".join(
        "#*T\n" + ("" if authors is None else f"#@{authors}\n") + "#t2000\n#fAI\n"
        + ("" if keywords is None else f"#k{keywords}\n") + f"#index{pid}\n\n"
        for pid, (keywords, authors) in enumerate(values)
    )
    corpus, report = parse_corpus(text, strictness=STRICT)
    assert not report.diagnostics
    for pid, (keywords, authors) in enumerate(values):
        want = () if keywords is None else tuple(
            sorted({normalize_keyword(kw) for kw in keywords.split(",")} - {""}))
        assert corpus[pid].keywords == want
        assert corpus[pid].authors == (
            () if authors is None else tuple(filter(None, map(str.strip, authors.split(",")))))
