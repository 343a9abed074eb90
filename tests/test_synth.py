"""Generator: determinism, format validity, planted-structure convergence."""

import math

import numpy as np
import pytest

from citefields import (
    AnalysisError, GeneratorSpec, PlantedLifecycle, STRICT,
    build_graph, field_flow, field_trajectory, generate, generate_corpus,
    load_generator_spec, parse_corpus, propensity_identity, propensity_mixed,
    propensity_uniform,
)
from citefields.diversity import rdi_paper


def test_same_seed_identical_bytes():
    spec = GeneratorSpec(seed=123, years_span=6)
    assert generate(spec) == generate(spec)


def test_different_seed_differs():
    assert generate(GeneratorSpec(seed=1)) != generate(GeneratorSpec(seed=2))


def test_output_strict_parses_clean():
    spec = GeneratorSpec(seed=5, field_count=8, years_span=12,
                         multi_tag_probability=0.3)
    corpus, report = parse_corpus(generate(spec), strictness=STRICT)
    assert report.skipped == 0
    assert not report.diagnostics
    assert len(corpus) == report.parsed > 0


def test_first_year_has_no_references():
    spec = GeneratorSpec(seed=7, start_year=1980, years_span=5)
    corpus = generate_corpus(spec)
    for pid in corpus:
        if corpus[pid].year == 1980:
            assert corpus[pid].references == ()


def test_references_point_to_prior_years_only():
    corpus = generate_corpus(GeneratorSpec(seed=9, years_span=8))
    for pid in corpus:
        for rid in corpus[pid].references:
            assert corpus[rid].year < corpus[pid].year


def test_identity_propensity_gives_zero_tau():
    k = 3
    spec = GeneratorSpec(
        seed=2, field_count=k, years_span=8,
        propensity=tuple(tuple(row) for row in propensity_identity(k)),
        multi_tag_probability=0.0,
    )
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    for f in range(k):
        for value in field_trajectory(graph, corpus, f).tau:
            assert value in (None, 0.0)


def test_uniform_propensity_rdi_near_ln_k():
    k = 5
    spec = GeneratorSpec(
        seed=3, field_count=k, years_span=10, papers_per_year=(20, 20),
        references=(30, 30),
        propensity=tuple(tuple(row) for row in propensity_uniform(k)),
        multi_tag_probability=0.0,
    )
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    values = []
    last_year = corpus.years()[-1]
    for pid in corpus:
        if corpus[pid].year == last_year:
            v = rdi_paper(graph, corpus, pid)
            if v is not None:
                values.append(v)
    mean = sum(values) / len(values)
    assert abs(mean - math.log(k)) < 0.15


def test_flow_fractions_converge_to_propensity():
    k = 4
    matrix = propensity_mixed(k, 0.55)
    spec = GeneratorSpec(
        seed=17, field_count=k, start_year=1970, years_span=25,
        papers_per_year=(40, 40), references=(10, 12),
        propensity=tuple(tuple(row) for row in matrix),
        multi_tag_probability=0.0,
    )
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    flow = field_flow(graph, corpus)
    assert math.fsum(map(math.fsum, flow)) > 10_000
    for i in range(k):
        total = math.fsum(flow[i])
        for j in range(k):
            p = matrix[i, j]
            se = math.sqrt(p * (1 - p) / total)
            # First-year papers have no choice of field (they cite whatever
            # exists), so allow 3 standard errors plus a small bias term.
            assert abs(flow[i][j] / total - p) < 3 * se + 0.01, (i, j)


def test_multi_tag_probability_reflected():
    spec = GeneratorSpec(seed=19, years_span=10, papers_per_year=(100, 100),
                         multi_tag_probability=0.2)
    corpus = generate_corpus(spec)
    multi = sum(1 for pid in corpus if len(corpus[pid].fields) > 1)
    fraction = multi / len(corpus)
    # binomial 99% band around 0.2 for n = 1000
    se = math.sqrt(0.2 * 0.8 / len(corpus))
    assert abs(fraction - 0.2) < 2.6 * se


def test_keyword_pools_respect_overlap():
    spec = GeneratorSpec(seed=23, field_count=3, years_span=4,
                         keyword_pool_size=20, keyword_overlap_fraction=0.5)
    corpus = generate_corpus(spec)
    shared = set()
    own = set()
    for pid in corpus:
        for kw in corpus[pid].keywords:
            (shared if kw.startswith("kw shared") else own).add(kw)
    assert shared and own


def test_infeasible_specs_rejected():
    with pytest.raises(AnalysisError):
        GeneratorSpec(field_count=0).validate()
    with pytest.raises(AnalysisError):
        GeneratorSpec(references=(5, 2)).validate()
    with pytest.raises(AnalysisError):
        GeneratorSpec(multi_tag_probability=1.5).validate()
    with pytest.raises(AnalysisError):
        GeneratorSpec(keyword_pool_size=3).validate()
    with pytest.raises(AnalysisError):
        GeneratorSpec(propensity=((0.5, 0.2), (0.5, 0.5))).validate()
    with pytest.raises(AnalysisError):
        GeneratorSpec(
            years_span=5,
            lifecycle=PlantedLifecycle(0, 1990, 1980),
        ).validate()


def test_spec_file_round_trip(tmp_path):
    text = """\
# generator settings
seed = 42
field_count = 6
start_year = 1980
years_span = 15
papers_per_year = 8:12
references = 2:5
multi_tag_probability = 0.15
propensity = mixed:0.7
lifecycle = 1:1986:1991
"""
    path = tmp_path / "gen.txt"
    path.write_text(text)
    spec = load_generator_spec(path.read_text())
    assert spec.seed == 42
    assert spec.field_count == 6
    assert spec.papers_per_year == (8, 12)
    assert spec.lifecycle == PlantedLifecycle(1, 1986, 1991)
    matrix = spec.propensity_matrix()
    assert matrix[0, 0] == pytest.approx(0.7)
    generate(spec)  # must be feasible


def test_spec_file_unknown_key_rejected():
    with pytest.raises(AnalysisError):
        load_generator_spec("seed = 1\nbogus = 2\n")


def test_header_comment_pins_rng():
    text = generate(GeneratorSpec(seed=4, years_span=3))
    header = text.splitlines()[0]
    assert header.startswith("%%")
    assert "mt19937" in header
    assert "seed=4" in header
