"""README's Library example runs as written against the current API."""

import re
from pathlib import Path

from citefields import GeneratorSpec, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # The example reads corpus.txt and writes rankings.csv in the working directory.
    corpus = generate(GeneratorSpec(seed=7, years_span=41))
    (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["flow"].shape == (24, 24)
    assert (tmp_path / "rankings.csv").read_text(encoding="utf-8").startswith("#")
