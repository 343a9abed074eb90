"""Golden report snapshots: CLI reports on small corpora, byte for byte.

Each snapshot under ``tests/golden/seed<N>/`` is the report one CLI
invocation writes for a small generated planted-lifecycle corpus; those
under ``tests/golden/defects/`` are the ``validate`` and ``stats`` reports
on a hand-built corpus with parser defects. A snapshot may change only when
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
    "impact": ("impact",),
    "impact-top-share": ("impact", "--top-share"),
    "impact-top-share-hit-rate": ("impact", "--top-share", "--hit-rate"),
    "impact-lifetime": ("impact", "--lifetime"),
    "buckets-rdi": ("buckets", "--metric", "rdi"),
    "buckets-kdi": ("buckets", "--metric", "kdi"),
    "reciprocity": ("reciprocity",),
    "reciprocity-exclude-diagonal": ("reciprocity", "--exclude-diagonal"),
    "reciprocity-matrix": ("reciprocity", "--matrix", "--window", "1980:1989"),
    "reciprocity-matrix-fractional": ("reciprocity", "--matrix",
                                      "--multiplicity", "fractional"),
    "acp": ("acp", "--focal", "AI", "--target", "Algo", "--window", "1980:1989"),
    "acp-fractional": ("acp", "--focal", "AI", "--target", "Algo",
                       "--window", "1980:1989", "--multiplicity", "fractional"),
    "trajectory": ("trajectory", "--field", "NETW"),
    "trajectory-phases": ("trajectory", "--field", "NETW", "--phases"),
    "evidence": ("evidence",),
    "evidence-1975-1990": ("evidence", "--years", "1975:1990"),
    # Every decade holds multi-tagged NETW papers on every seed.
    "cotag": ("cotag", "--field-a", "NETW", "--field-b", "AI", *_DECADES),
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
DEFECT_INVOCATIONS = {
    "validate": ("validate", "--format", "json"),
    "stats": ("stats",),
}


def defect_corpus() -> bytes:
    return "".join(sep + block for sep, block in DEFECT_BLOCKS).encode("utf-8")


def corpus_spec(seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        seed=seed, field_count=8, start_year=1970, years_span=40,
        papers_per_year=(40, 40), references=(3, 6), multi_tag_probability=0.1,
        lifecycle=PlantedLifecycle(focal_field=2, tau_drop_year=1984, zeta_rise_year=1996),
    )


def golden_path(seed: int, label: str) -> Path:
    return GOLDEN_DIR / f"seed{seed}" / f"{label}.csv"


def defect_golden_path(label: str) -> Path:
    suffix = ".json" if "json" in DEFECT_INVOCATIONS[label] else ".csv"
    return GOLDEN_DIR / "defects" / f"{label}{suffix}"


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
