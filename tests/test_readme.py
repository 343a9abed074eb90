"""README's Library example runs as written against the current API, its
CLI usage block names the CLI's subcommands, and its generator section
names every spec key."""

import argparse
import dataclasses
import re
from importlib import import_module
from pathlib import Path
from types import ModuleType

import citefields
from citefields import GeneratorSpec, cli, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    """README's section ``heading``, up to the next section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) + len(heading):]
    return section.split("\n## ", 1)[0]


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block of README's section ``heading``."""
    return re.search(rf"```{language}\n(.*?)```", _section(heading), re.DOTALL).group(1)


def library_block() -> str:
    return _block("## Library", "python")


def test_library_example_runs(tmp_path, monkeypatch):
    # The example reads corpus.txt and writes rankings.csv in the working directory.
    corpus = generate(GeneratorSpec(seed=7, years_span=41))
    (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    flow = namespace["flow"]
    assert len(flow) == 24 and all(len(row) == 24 for row in flow)
    assert (tmp_path / "rankings.csv").read_text(encoding="utf-8").startswith("#")


def test_package_exports_the_readme_names_and_no_modules():
    exported = set(citefields.__all__)
    imported = re.search(r"from citefields import \((.*?)\)", library_block(), re.DOTALL).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= exported
    assert not [name for name in exported if isinstance(getattr(citefields, name), ModuleType)]
    # Per-paper kernels stay in their modules, outside the package namespace.
    for name, module in (("rdi_paper", "diversity"), ("kdi_paper", "diversity"),
                         ("citations_received", "impact")):
        assert name not in exported and not hasattr(citefields, name)
        assert callable(getattr(import_module(f"citefields.{module}"), name))


def test_readme_corpus_attributes_exist():
    # Each `corpus.NAME` the README names in backticks is an attribute of Corpus.
    names = re.findall(r"`corpus\.(\w+)", README.read_text(encoding="utf-8"))
    assert names and not [name for name in names if not hasattr(citefields.Corpus, name)]


def test_readme_cli_block_names_each_subcommand_once():
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert set(subcommands) == {*cli._ANALYSES, "generate"}
    named = [line.split()[1] for line in _block("## CLI", "sh").splitlines()
             if line.startswith("citefields ")]
    assert sorted(named) == sorted(subcommands)


def test_readme_generator_section_names_every_spec_key():
    section = _section("## Synthetic generator")
    missing = [field.name for field in dataclasses.fields(GeneratorSpec)
               if f"`{field.name}`" not in section]
    assert not missing
    assert "`tests/oracles.py`" in section  # the generator's byte-exact reference
