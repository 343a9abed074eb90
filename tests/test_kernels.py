"""The analyses' reports equal, byte for byte, those of the record-based
kernels they replaced (``tests/oracles.py``), on random serialized corpora.

Every analysis entry of ``test_golden.INVOCATIONS`` runs through
``cli.main`` three times on each corpus: as the CLI runs it, with its
subcommand's record-based command and the verbatim kernels (the
reference), and with the same command and the package's kernels on a
built ``Corpus``. All three must write the same report bytes, or the same
error record with the same exit code.
"""

from __future__ import annotations

import dataclasses
import io
from contextlib import redirect_stderr
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import citefields
import oracles
from citefields import Corpus, cli, generate
from test_folds import _reference_cotag, _reference_stats
from test_golden import INVOCATIONS, corpus_spec

ANALYSES = {label: args for label, args in INVOCATIONS.items()
            if args[0] in oracles.RECORD_ANALYSES}

# Abbreviations and names of the first ten default fields, so that a paper
# can carry up to seven of them; AI, Algo and NETW are the invocations'.
FIELD_LABELS = ("AI", "Algo", "NETW", "Databases", "DIST", "ARC", "SE", "ML", "SC", "BIO")
# Padded, differently cased and empty names; names that match once trimmed
# and case-folded are the same author.
AUTHORS = ("Ann Lee", " ann lee", "ANN LEE ", "Bo Kim", "bo kim", "Jo Müller", "JO MÜLLER", "", "  ")
# Keyword pieces that need trimming, collapsing or case folding, and empty ones.
KEYWORDS = ("deep learning", "Deep  Learning", " graph", "GRAPH ", "Straße", "strasse", "x", "")
# No venue, an empty or blank one, and venues that need trimming.
VENUES = (None, "", "  ", "V1", " V1 ", "V2", "v2")


@st.composite
def _corpus_files(draw) -> bytes:
    """A serialized corpus in the ``#*``, ``#@``, ``#t``, ``#c``, ``#f``,
    ``#k``, ``#index``, ``#%`` order, its blocks in random id order: sparse
    ids, years around the invocations' windows, one to seven fields, and
    references that dangle, repeat or cite their own paper."""
    size = draw(st.integers(1, 40))  # lists alone are mostly short
    ids = draw(st.lists(st.integers(1, 150), min_size=size, max_size=size, unique=True))
    blocks = []
    for pid in ids:
        lines = [f"#*Paper {pid}"]
        authors = draw(st.lists(st.sampled_from(AUTHORS), max_size=3))
        if authors:
            lines.append("#@" + ",".join(authors))
        # Half the papers in four years, so that venues have impact factors.
        lines.append(f"#t{draw(st.integers(1968, 2001) | st.integers(1980, 1983))}")
        venue = draw(st.sampled_from(VENUES))
        if venue is not None:
            lines.append("#c" + venue)
        fields = draw(st.lists(st.sampled_from(FIELD_LABELS), min_size=1, max_size=7, unique=True))
        lines.append("#f" + ",".join(fields))
        if draw(st.booleans()):
            lines.append("#k" + ",".join(draw(st.lists(st.sampled_from(KEYWORDS), max_size=4))))
        lines.append(f"#index{pid}")
        refs = draw(st.lists(st.one_of(st.sampled_from(ids), st.integers(1, 160)), max_size=6))
        lines += [f"#%{rid}" for rid in refs]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks).encode("utf-8")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("kernels")


def _run(argv, command, out: Path) -> tuple:
    """The exit code, report bytes and stderr of ``cli.main(argv)``, with
    ``command`` (when given) in place of its driver, ``cli._analyze``."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
        if command is not None:
            mp.setattr(cli, "_analyze", command)
        code = cli.main(argv)
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


@given(data=_corpus_files())
@settings(max_examples=30, deadline=None)
@example(data=b"#*Only\n#@ Ann Lee ,ann lee\n#t1975\n#c V1 \n#fAI,Algo,NETW,DB,DIST,ARC,SE\n"
              b"#kDeep  Learning,,GRAPH \n#index7\n#%7\n#%3\n#%3\n")
def test_analyses_equal_the_record_based_reports(work_dir, data):
    corpus = work_dir / "corpus.txt"
    corpus.write_bytes(data)
    out = work_dir / "report.out"
    for label, (head, *flags) in ANALYSES.items():
        argv = [head, str(corpus), *flags, "-o", str(out)]
        record_command = oracles.RECORD_ANALYSES[head]
        reference = _run(argv, partial(record_command, oracles), out)
        assert _run(argv, None, out) == reference, label
        assert _run(argv, partial(record_command, citefields), out) == reference, label


def test_references_read_no_table(tmp_path, monkeypatch):
    """The reference commands, and ``test_folds``' references of ``stats``
    and ``cotag``, read a built corpus's records only: with ``Corpus.table``
    raising, each writes its report for every invocation."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(generate(dataclasses.replace(corpus_spec(3), papers_per_year=(8, 8))),
                      encoding="utf-8")
    out = tmp_path / "report.out"

    def no_table(_corpus):
        raise AssertionError("a reference read Corpus.table")

    monkeypatch.setattr(Corpus, "table", property(no_table))
    references = {head: partial(command, oracles)
                  for head, command in oracles.RECORD_ANALYSES.items()}
    references.update(stats=_reference_stats, cotag=_reference_cotag)
    ran = set()
    for label, (head, *flags) in INVOCATIONS.items():
        if head in references:
            code, report, err = _run([head, str(corpus), *flags, "-o", str(out)],
                                     references[head], out)
            assert (code, err) == (0, "") and report, label
            ran.add(head)
    assert ran == set(references)
