"""Shared fixtures: tiny hand-built corpora and a real-format golden record."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import citefields
from citefields import Corpus, FieldTaxonomy, GeneratorSpec, PaperRecord, generate

# A production-shape record (conference paper with authors, keywords, nine
# references, abstract). Used for golden parsing and round-trip checks.
GOLDEN_RECORD = """\
#*GlitchMap: An FPGA Technology Mapper for Low Power Considering Glitches.
#@Lei Cheng,Deming Chen,Martin D. F. Wong
#t2007
#cDAC
#fComputer Architecture
#kField programmable gate arrays, Minimization methods, Delay, Table lookup, Energy consumption, Power engineering computing, Algorithm design and analysis, Boolean functions, Permission, Logic
#index134672
#%233644
#%759
#%283365
#%215199
#%282586
#%214457
#%132100
#%281965
#%281805
#!In 90-nm technology, dynamic power is still the largest power source in FPGAs [1], and signal glitches contribute a large portion of the dynamic power consumption. Previous power-aware technology mapping algorithms for FPGAs have not taken into account the glitch power reduction. In this paper, we present a dynamic power estimation model and a new technology mapping algorithm considering glitches. To the best of our knowledge, this is the first work that explicitly reduces glitch power during technology mapping for FPGAs. Experiments show that our algorithm, named GlitchMap, is able to reduce dynamic power by 18.7% compared to a previous state-of-the-art power-aware algorithm, EMap [2].
"""


def rec(
    pid: int,
    year: int = 2000,
    fields=(0,),
    refs=(),
    keywords=(),
    authors=("Alice Author",),
    venue: str | None = None,
    title: str | None = None,
    abstract: str | None = None,
) -> PaperRecord:
    return PaperRecord(
        id=pid,
        title=title or f"Paper {pid}",
        authors=tuple(authors),
        year=year,
        venue=venue,
        fields=frozenset(fields),
        keywords=tuple(sorted(set(keywords))),
        references=tuple(refs),
        abstract=abstract,
    )


def corpus_of(*records: PaperRecord, taxonomy: FieldTaxonomy | None = None) -> Corpus:
    return Corpus(records, taxonomy or FieldTaxonomy.default())


@pytest.fixture
def golden_text() -> str:
    return GOLDEN_RECORD


@pytest.fixture
def taxonomy() -> FieldTaxonomy:
    return FieldTaxonomy.default()


def child_env() -> dict:
    """The environment for a child interpreter that must import the package under test.

    The package may be on ``sys.path`` only (pytest's pythonpath setting)
    rather than installed.
    """
    src = str(Path(citefields.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A generated corpus file of 36 papers in 3 fields (AI, Algo, NETW), 1970-1975."""
    path = tmp_path_factory.mktemp("tiny") / "corpus.txt"
    spec = GeneratorSpec(seed=2, field_count=3, years_span=6, papers_per_year=(6, 6))
    path.write_text(generate(spec), encoding="utf-8")
    return path
