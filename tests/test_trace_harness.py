"""The benchmark's traced runner still wraps every name it reaches for.

``perfbench/traced.py`` replaces public names of the package with timing
wrappers before it calls the CLI. A renamed or deleted name makes it fail
with ``AttributeError``; this test runs it on a tiny corpus so such a
change fails here rather than in a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citefields
from citefields import GeneratorSpec, generate

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"

INVOCATIONS = {
    "rank": ("rank", "--metric", "rdi", "--window", "1970:1974"),
    "impact": ("impact",),
    "reciprocity": ("reciprocity",),
    "acp": ("acp", "--focal", "AI", "--target", "Algo", "--window", "1970:1974"),
    "trajectory": ("trajectory", "--field", "AI"),
    "evidence": ("evidence",),
}


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("traced") / "corpus.txt"
    spec = GeneratorSpec(seed=2, field_count=3, years_span=6, papers_per_year=(6, 6))
    path.write_text(generate(spec), encoding="utf-8")
    return path


@pytest.mark.parametrize("label", sorted(INVOCATIONS))
def test_traced_runner_completes(label, tiny_corpus):
    src = str(Path(citefields.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    spans = tiny_corpus.parent / f"{label}.spans.json"
    out = tiny_corpus.parent / f"{label}.csv"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), label, "--",
         *INVOCATIONS[label], str(tiny_corpus), "-o", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.import", "cli.main", "corpusio.parse", "graph.build"} <= names
