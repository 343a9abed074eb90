"""Golden report snapshots: CLI reports on planted-lifecycle corpora, byte for byte.

Each snapshot under ``tests/golden/seed<N>/`` is the report one CLI
invocation writes for a small generated corpus. A snapshot may change only
when CHANGES.md explains why (for example a proven last-ulp summation
change), never to make a diff disappear. To rewrite them from the current
code, run ``python tests/test_golden.py`` with ``src`` importable.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from citefields.cli import main
from citefields.synth import GeneratorSpec, PlantedLifecycle, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = (3, 8)
# Reports echo the input path in their config line, so every run reads the
# corpus under this name from its working directory.
INPUT_NAME = "corpus.txt"

_WINDOWS = ("--window", "1970:1979", "--window", "1990:1999")
INVOCATIONS = {
    "rank-rdi": ("rank", "--metric", "rdi", *_WINDOWS),
    "rank-kdi": ("rank", "--metric", "kdi", *_WINDOWS),
    "rank-rdi-fractional": ("rank", "--metric", "rdi", *_WINDOWS,
                            "--multiplicity", "fractional"),
    "impact": ("impact",),
    "reciprocity-matrix": ("reciprocity", "--matrix", "--window", "1980:1989"),
    "acp": ("acp", "--focal", "AI", "--target", "Algo", "--window", "1980:1989"),
    "trajectory-phases": ("trajectory", "--field", "NETW", "--phases"),
    "evidence": ("evidence",),
    "evidence-1975-1990": ("evidence", "--years", "1975:1990"),
}


def corpus_spec(seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        seed=seed, field_count=8, start_year=1970, years_span=40,
        papers_per_year=(40, 40), references=(3, 6), multi_tag_probability=0.1,
        lifecycle=PlantedLifecycle(focal_field=2, tau_drop_year=1984, zeta_rise_year=1996),
    )


def golden_path(seed: int, label: str) -> Path:
    return GOLDEN_DIR / f"seed{seed}" / f"{label}.csv"


def render(label: str) -> bytes:
    """Run one invocation on ``INPUT_NAME`` in the working directory."""
    head, *flags = INVOCATIONS[label]
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


if __name__ == "__main__":
    for seed in SEEDS:
        golden_path(seed, "x").parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            home = os.getcwd()
            os.chdir(work)
            try:
                Path(INPUT_NAME).write_text(generate(corpus_spec(seed)), encoding="utf-8")
                for label in sorted(INVOCATIONS):
                    golden_path(seed, label).write_bytes(render(label))
            finally:
                os.chdir(home)
