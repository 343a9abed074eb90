"""``stats`` and ``cotag`` fold the columns the parser hands over and build no
record: their reports and errors equal, byte for byte, those of the
record-based fold and ``cotag_report`` they replaced (``tests/oracles.py``)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from citefields import FieldTaxonomy, corpus_stats, cotag_report, parse_corpus, serialize_corpus
from citefields.cli import (
    NO_RECORDS, _build_parser, _cmd_cotag, _cmd_stats, _field_index, _parse_input,
)
from citefields.errors import AnalysisError, CitefieldsError
from conftest import corpus_of, rec
from oracles import cotag_report_records, stats_fold_records
from test_parser import _MUTATIONS, _joined, _mutate

LABELS = ("AI", "Algo", "NETW", "Artificial Intelligence", "Quantum Basketry")


def _reference_stats(args):
    """The record-based ``stats``: a built corpus's records, folded."""
    corpus, _report = _parse_input(args)
    report = stats_fold_records(corpus.records.values(), corpus.taxonomy)
    if report is None:
        raise AnalysisError(NO_RECORDS)
    return report


def _reference_cotag(args):
    """The record-based ``cotag``, its checks in the order it made them."""
    corpus, _report = _parse_input(args)
    if len(corpus) == 0:
        raise AnalysisError(NO_RECORDS)
    for span in args.window:
        if not any(span.contains(year) for year in corpus.by_year):
            raise AnalysisError(f"no papers in the window {span}")
    return cotag_report_records(
        corpus,
        _field_index(corpus.taxonomy, args.field_a),
        _field_index(corpus.taxonomy, args.field_b),
        args.window,
    )


def _outcome(command, args) -> tuple:
    """The CSV and JSON text of the report of ``command``, or the type and
    message of the error it raised."""
    try:
        report = command(args)
    except CitefieldsError as exc:
        return type(exc), str(exc)
    return report.to_csv_text(), report.to_json_text()


@st.composite
def _corpus_files(draw) -> bytes:
    """A serialized corpus whose papers carry one to three of the first
    three fields, some with keyword texts that repeat a keyword or need
    normalizing, and with up to three mutations: CRLF line ends, moved,
    repeated or dropped tags, bad years and ids, repeated ids."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=True))
    records = [
        rec(pid, year=draw(st.integers(1970, 1979)),
            fields=draw(st.sets(st.integers(0, 2), min_size=1, max_size=3)),
            refs=tuple(draw(st.lists(st.integers(0, 60).filter(lambda r, p=pid: r != p),
                                     max_size=3, unique=True))),
            keywords=tuple(sorted(draw(st.sets(st.sampled_from(("a", "b c", "d")), max_size=3)))))
        for pid in ids
    ]
    text = serialize_corpus(corpus_of(*records))
    blocks = [block.split("\n") for block in text.rstrip("\n").split("\n\n")]
    for lines in blocks:  # keyword texts with repeats, some to normalize
        if draw(st.booleans()):
            words = draw(st.lists(st.sampled_from(("a", "d", "b c", "B  C", " a")), max_size=4))
            at = next(i for i, line in enumerate(lines) if line.startswith(("#k", "#index")))
            lines[at:at + lines[at].startswith("#k")] = ["#k" + ",".join(words)]
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3))
    for kind in kinds:
        _mutate(draw, blocks, draw(st.sampled_from(blocks)), kind)
    return _joined(blocks, kinds)


# Windows around the papers' years 1970-1979; some hold none of them.
_window = st.tuples(st.integers(1970, 1981), st.integers(0, 12)).map(
    lambda span: f"{span[0]}:{span[0] + span[1]}")


@pytest.fixture(scope="module")
def fold_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("folds")


@given(
    data=_corpus_files(),
    windows=st.lists(_window, min_size=1, max_size=3),
    labels=st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
)
@settings(max_examples=150, deadline=None)
@example(data=b"", windows=["1970:1979"], labels=("AI", "Algo"))
@example(data=b"#*T\r\n#t19x0\r\n#fAI\r\n#index1\r\n", windows=["1970:1979"], labels=("AI", "AI"))
def test_stats_and_cotag_equal_the_record_based_reports(fold_dir, data, windows, labels):
    path = fold_dir / "corpus.txt"
    path.write_bytes(data)
    parser = _build_parser()
    flags = ["--field-a", labels[0], "--field-b", labels[1]]
    for window in windows:
        flags += ["--window", window]
    for strict in ([], ["--strict"]):
        args = parser.parse_args(["stats", str(path), *strict])
        assert _outcome(_cmd_stats, args) == _outcome(_reference_stats, args)
        args = parser.parse_args(["cotag", str(path), *flags, *strict])
        assert _outcome(_cmd_cotag, args) == _outcome(_reference_cotag, args)
    # The library entry points, over the corpus the parse builds.
    corpus, _report = parse_corpus(data)
    if len(corpus):
        assert corpus_stats(corpus).to_csv_text() == stats_fold_records(
            corpus.records.values(), corpus.taxonomy).to_csv_text()
    taxonomy = FieldTaxonomy.default()
    field_a, field_b = taxonomy.get(labels[0]), taxonomy.get(labels[1])
    if field_a is not None and field_b is not None:
        spans = parser.parse_args(["cotag", "x", *flags]).window
        assert cotag_report(corpus, field_a, field_b, spans).to_csv_text() == (
            cotag_report_records(corpus, field_a, field_b, spans).to_csv_text())
