"""Golden report snapshots: CLI reports on small corpora, byte for byte.

Each snapshot under ``tests/golden/seed<N>/`` is the report one CLI
invocation writes for a small generated planted-lifecycle corpus; those
under ``tests/golden/defects/`` are the ``validate``, ``stats``, ``impact``
and ``reciprocity --matrix`` reports on a hand-built corpus with parser
defects, and those under ``tests/golden/edges/`` the ``validate``,
``stats``, ``rank``, ``impact`` and ``evidence`` reports on a hand-built
corpus of parser edge cases. A snapshot may change only when
CHANGES.md explains why (for example a proven last-ulp summation change),
never to make a diff disappear. To rewrite them from the current code, run
``python tests/test_golden.py`` with ``src`` importable.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from citefields.cli import main
from citefields.synth import GeneratorSpec, PlantedLifecycle, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = (3, 5, 8)
# Reports echo the input path in their config line, so every run reads the
# corpus under this name from its working directory.
INPUT_NAME = "corpus.txt"

_WINDOWS = ("--window", "1970:1979", "--window", "1990:1999")
_DECADES = ("--window", "1970:1979", "--window", "1980:1989",
            "--window", "1990:1999", "--window", "2000:2009")
INVOCATIONS = {
    "rank-rdi": ("rank", "--metric", "rdi", *_WINDOWS),
    "rank-kdi": ("rank", "--metric", "kdi", *_WINDOWS),
    "rank-rdi-fractional": ("rank", "--metric", "rdi", *_WINDOWS,
                            "--multiplicity", "fractional"),
    "rank-kdi-normalized-global": ("rank", "--metric", "kdi", *_WINDOWS, "--normalized-kdi",
                                   "--keyword-scope", "corpus-global"),
    "impact": ("impact",),
    "impact-json": ("impact", "--format", "json"),
    "impact-top-share": ("impact", "--top-share"),
    "impact-top-share-hit-rate": ("impact", "--top-share", "--hit-rate"),
    "impact-lifetime": ("impact", "--lifetime"),
    "impact-1980-1989": ("impact", "--window", "1980:1989"),
    "impact-horizon-3": ("impact", "--horizon", "3"),
    "buckets-rdi": ("buckets", "--metric", "rdi"),
    "buckets-rdi-json": ("buckets", "--metric", "rdi", "--format", "json"),
    "buckets-kdi": ("buckets", "--metric", "kdi"),
    "buckets-rdi-1980-1989": ("buckets", "--metric", "rdi", "--window", "1980:1989"),
    "buckets-rdi-horizon-3": ("buckets", "--metric", "rdi", "--horizon", "3"),
    "buckets-kdi-1980-1989-global": ("buckets", "--metric", "kdi", "--window", "1980:1989",
                                     "--keyword-scope", "corpus-global"),
    "reciprocity": ("reciprocity",),
    "reciprocity-exclude-diagonal": ("reciprocity", "--exclude-diagonal"),
    "reciprocity-1980-1989": ("reciprocity", "--window", "1980:1989"),
    "reciprocity-matrix": ("reciprocity", "--matrix", "--window", "1980:1989"),
    "reciprocity-matrix-fractional": ("reciprocity", "--matrix",
                                      "--multiplicity", "fractional"),
    "acp": ("acp", "--focal", "AI", "--target", "Algo", "--window", "1980:1989"),
    "acp-fractional": ("acp", "--focal", "AI", "--target", "Algo",
                       "--window", "1980:1989", "--multiplicity", "fractional"),
    "trajectory": ("trajectory", "--field", "NETW"),
    "trajectory-phases": ("trajectory", "--field", "NETW", "--phases"),
    "trajectory-1975-1995": ("trajectory", "--field", "NETW", "--years", "1975:1995"),
    "evidence": ("evidence",),
    "evidence-1975-1990": ("evidence", "--years", "1975:1990"),
    # Every decade holds multi-tagged NETW papers on every seed.
    "cotag": ("cotag", "--field-a", "NETW", "--field-b", "AI", *_DECADES),
    "stats": ("stats",),
    "stats-json": ("stats", "--format", "json"),
    "validate": ("validate", "--format", "json"),
}


# Every diagnostic code but ``encoding`` (non-UTF-8 input, tested in
# test_parser and test_cli), a ``%%`` comment inside a record,
# whitespace-only separators and CRLF line endings on some records. Each
# block is preceded by the separator paired with it.
DEFECT_BLOCKS = (
    ("%% hand-built corpus with planted defects\n\n",
     "#*Clean record\n#@Jo M\u00fcller , ,Max Dev\n#t1990\n%% a comment inside a record\n"
     "#cVLDB\n#fDatabases,Data Mining\n#kData   Mining, QUERY,,\n#index1\n#%2\n#%99\n"
     "#!An abstract.\n"),
    ("\n", "#*CRLF record\r\n#@Ann Lee\r\n#t1991\r\n#fDB\r\n#index2\r\n#%1\r\n#%x7\r\n"
            "#%-3\r\n#%2\r\n#%1\r\n"),
    ("   \n", "#*Repeated tags\n#*Second title\n#@A One\n#@B Two\n#t1992\n#t1993\n#cV\n"
              "#cW\n#fAI\n#index3\n#index33\n#!first\n#!second\n#qunknown tag\n"
              "plain text line\n#\n#i5\n"),
    ("\r\n", "#*No index\r\n#t1992\r\n#fAI\r\n"),
    ("\t\n\n", "#*Bad index\n#t1992\n#fAI\n#indexabc\n"),
    ("\n", "#*Negative index\n#t1992\n#fAI\n#index-4\n"),
    ("\n%% a comment between records\n", "#*Repeated id\n#t1992\n#fAI\n#index1\n"),
    ("\n", "#*Bad year\n#t19x2\n#fAI\n#index8\n"),
    (" \t \n", "#*Old year\n#t1776\n#fAI\n#index9\n"),
    ("\n", "#*No year\n#fAI\n#index10\n"),
    ("\n", "#*No field line\n#t1992\n#index11\n"),
    ("\n", "#*Empty field line\n#t1992\n#f , \n#index12\n"),
    ("\n", "#*Unknown field\n#t1993\n#fQuantum Basketry,AI\n#fArtificial Intelligence\n"
            "#kBeta\n#index13\n#%13\n#%1\n"),
    ("\n", "#*No valid field\n#t1993\n#fQuantum Basketry\n#index14\n"),
    ("\n\n", "#*Last record\r\n#@Jo M\u00fcller\r\n#t1994\r\n#cVLDB\r\n"
               "#fML\r\n#index15\r\n#%13"),
)
# Paper 1 cites the missing id 99, so ``impact`` and ``reciprocity --matrix``
# read a graph built over a table with a dangling reference.
DEFECT_INVOCATIONS = {
    "validate": ("validate", "--format", "json"),
    "stats": ("stats",),
    "impact": ("impact",),
    "reciprocity-matrix": ("reciprocity", "--matrix"),
}

# Parser edge cases on records that mostly parse: keyword lines with tabs,
# doubled spaces, U+00A0, U+3000 and U+001C (all whitespace to ``str.split``),
# " , " separators, empty items and case-fold expansions (sharp s, the fi
# ligature, dotted capital I, final sigma); the reference spellings `` 7 ``,
# ``007`` and U+001C around an id (all kept), ``+5``, ``1_0``, ``-3`` and
# ``x7`` (dropped: ``int`` takes the first two, the parser only ASCII
# digits), a self reference and a duplicate; CRLF lines; a
# non-UTF-8 title, keyword line and comment line. Keywords overlap across
# fields so ``rank --metric kdi`` has values to rank.
EDGE_CORPUS = (
    "%% parser edge cases\n\n"
    "#*Whitespace and case\n#@Ann Lee\n#t2000\n#fAI\n"
    "#kDeep\tLearning , deep  learning,Stra\u00dfe,STRASSE,\ufb01le System,File system, ,,"
    "Graph\u00a0Search\u3000Methods\u001cX\n"
    "#k  \u0130stanbul ,\u03a3\u039f\u03a6\u039f\u03a3\t, Deep learning \n"
    "#index1\n#%+5\n#% 7 \n#%1_0\n#%-3\n#%x7\n#%1\n#%5\n#%\u001c12\u001c\n#!Abstract one.\n"
    "\n"
    "#*Second\n#@Bo Kim,Ann Lee\n#t2000\n#fAlgorithm\n"
    "#kgraph search methods x, deep learning,strasse\n#index5\n#%1\n"
    "\n"
    "#*CRLF record\r\n#@Cy Ray\r\n#t2001\r\n#fAI,Algo\r\n"
    "#kFILE SYSTEM , \u03c3\u03bf\u03c6\u03bf\u03c3,,\r\n#k\r\n#index7\r\n#%5\r\n#%+1\r\n"
    "\r\n"
    "#*Network paper\n#t2001\n#fNETW\n#k , \t,\n#kROUTING,Routing ,i\u0307stanbul\n"
    "#index10\n#%7\n#%007\n"
    "\n"
    "#*Empty keyword line\n#t2002\n#fDB\n#k\n#index12\n#%10\n"
    "\n"
).encode("utf-8") + (
    b"#*Bad \xe9 title\n#t2002\n#fDB\n#kdata\n#index13\n"
    b"\n"
    b"%% caf\xe9 comment\n"
    b"#*Bad keyword\n#t2003\n#fAI\n#kcaf\xe9\n#index14\n"
    b"\n"
    b"#*Last\n#t2003\n#fAI\n#kRouting\xc2\xa0\n#index15\n#%12"
)
EDGE_INVOCATIONS = {
    "validate": ("validate", "--format", "json"),
    "stats": ("stats",),
    "rank-kdi": ("rank", "--metric", "kdi", "--window", "2000:2001", "--window", "2000:2003"),
    "rank-rdi-fractional": ("rank", "--metric", "rdi", "--window", "2000:2001",
                            "--window", "2000:2003", "--multiplicity", "fractional"),
    "impact": ("impact",),
    "evidence": ("evidence",),
}


def defect_corpus() -> bytes:
    return "".join(sep + block for sep, block in DEFECT_BLOCKS).encode("utf-8")


def corpus_spec(seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        seed=seed, field_count=8, start_year=1970, years_span=40,
        papers_per_year=(40, 40), references=(3, 6), multi_tag_probability=0.1,
        lifecycle=PlantedLifecycle(focal_field=2, tau_drop_year=1984, zeta_rise_year=1996),
    )


def _suffix(args: tuple[str, ...]) -> str:
    return ".json" if "json" in args else ".csv"


def golden_path(seed: int, label: str) -> Path:
    return GOLDEN_DIR / f"seed{seed}" / f"{label}{_suffix(INVOCATIONS[label])}"


def defect_golden_path(label: str, name: str = "defects", invocations=DEFECT_INVOCATIONS) -> Path:
    return GOLDEN_DIR / name / f"{label}{_suffix(invocations[label])}"


def edge_golden_path(label: str) -> Path:
    return defect_golden_path(label, "edges", EDGE_INVOCATIONS)


def render(label: str, invocations=INVOCATIONS) -> bytes:
    """Run one invocation on ``INPUT_NAME`` in the working directory."""
    head, *flags = invocations[label]
    out = f"{label}.out"
    if main([head, INPUT_NAME, *flags, "-o", out]) != 0:
        raise RuntimeError(f"citefields {head} failed for {label}")
    return Path(out).read_bytes()


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    dirs = {}
    for seed in SEEDS:
        d = tmp_path_factory.mktemp(f"golden-seed{seed}")
        (d / INPUT_NAME).write_text(generate(corpus_spec(seed)), encoding="utf-8")
        dirs[seed] = d
    return dirs


@pytest.mark.parametrize("label", sorted(INVOCATIONS))
@pytest.mark.parametrize("seed", SEEDS)
def test_report_matches_golden(seed, label, corpus_dirs, monkeypatch):
    monkeypatch.chdir(corpus_dirs[seed])
    assert render(label) == golden_path(seed, label).read_bytes()


@pytest.mark.parametrize("label", sorted(DEFECT_INVOCATIONS))
def test_defect_report_matches_golden(label, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path(INPUT_NAME).write_bytes(defect_corpus())
    assert render(label, DEFECT_INVOCATIONS) == defect_golden_path(label).read_bytes()


@pytest.mark.parametrize("label", sorted(EDGE_INVOCATIONS))
def test_edge_report_matches_golden(label, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path(INPUT_NAME).write_bytes(EDGE_CORPUS)
    assert render(label, EDGE_INVOCATIONS) == edge_golden_path(label).read_bytes()


def write_goldens(corpus: bytes, invocations: dict, path_of) -> None:
    """Render every invocation on ``corpus`` and write it to ``path_of(label)``."""
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            Path(INPUT_NAME).write_bytes(corpus)
            for label in sorted(invocations):
                target = path_of(label)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(render(label, invocations))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    for seed in SEEDS:
        write_goldens(generate(corpus_spec(seed)).encode("utf-8"), INVOCATIONS,
                      lambda label, seed=seed: golden_path(seed, label))
    write_goldens(defect_corpus(), DEFECT_INVOCATIONS, defect_golden_path)
    write_goldens(EDGE_CORPUS, EDGE_INVOCATIONS, edge_golden_path)
