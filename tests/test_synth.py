"""Generator: determinism, format validity, planted-structure convergence."""

import math
from dataclasses import replace
from functools import partial
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citefields import (
    AnalysisError, DEFAULT_FIELDS, GeneratorSpec, PlantedLifecycle, STRICT,
    build_graph, field_flow, field_trajectory, generate, generate_corpus,
    load_generator_spec, parse_corpus, propensity_identity, propensity_mixed,
    propensity_uniform, synth,
)
from citefields.diversity import rdi_paper
import oracles
from oracles import (
    propensity_identity_numpy, propensity_mixed_numpy, propensity_uniform_numpy,
    sampling_matrix_numpy, validate_propensity_numpy,
)


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
    last_year = sorted(set(corpus.table.year))[-1]
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
            p = matrix[i][j]
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
    # At the parent a pool of 2 validated and wrote papers of 2 authors.
    with pytest.raises(AnalysisError, match="author pool smaller than authors_per_paper"):
        GeneratorSpec(author_pool_size=2, authors_per_paper=(3, 3)).validate()
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
    assert matrix[0][0] == pytest.approx(0.7)
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


def test_negative_seed_rejected():
    # Random(seed) seeds by |seed|: seed -5 would write the records of seed 5.
    with pytest.raises(AnalysisError, match="seed must be non-negative"):
        GeneratorSpec(seed=-5).validate()
    with pytest.raises(AnalysisError, match="seed must be non-negative"):
        generate(load_generator_spec("seed = -5\n"))
    GeneratorSpec(seed=0).validate()


@pytest.mark.parametrize("start_year, years_span, accepted", [
    (2091, 10, True),    # ends in 2100
    (2092, 10, False),   # ends in 2101
    (1900, 5, True),
    (1899, 5, False),
])
def test_generated_years_lie_in_the_parsers_range(start_year, years_span, accepted):
    spec = GeneratorSpec(seed=1, start_year=start_year, years_span=years_span)
    if not accepted:
        with pytest.raises(AnalysisError, match="fall outside"):
            spec.validate()
        return
    corpus, report = parse_corpus(generate(spec))
    assert report.skipped == 0
    assert len(corpus) == report.parsed == report.blocks


_PRESETS_NUMPY = {
    "identity": propensity_identity_numpy,
    "uniform": propensity_uniform_numpy,
    "mixed:0.6": partial(propensity_mixed_numpy, self_weight=0.6),
    "mixed:0.37": partial(propensity_mixed_numpy, self_weight=0.37),
    "mixed:0.9": partial(propensity_mixed_numpy, self_weight=0.9),
}


def _assert_generates_as_numpy_reference(spec, reference_spec, monkeypatch):
    """``generate(spec)`` against ``generate(reference_spec)`` drawn from the
    numpy reference's sampling matrix, byte for byte."""
    assert synth._sampling_matrix(spec) == sampling_matrix_numpy(reference_spec).tolist()
    text = generate(spec)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_sampling_matrix", sampling_matrix_numpy)
        assert generate(reference_spec) == text


@pytest.mark.parametrize("k, preset, planted", [
    (k, preset, planted)
    for k in range(1, len(DEFAULT_FIELDS) + 1)
    for preset in _PRESETS_NUMPY
    for planted in (False, True)
    if k > 1 or not planted  # a lifecycle needs two fields
])
def test_generate_matches_numpy_reference(k, preset, planted, monkeypatch):
    text = f"seed = {k}\nfield_count = {k}\npropensity = {preset}\n"
    if planted:
        text += f"lifecycle = {k // 2}:1976:1982\n"
    spec = load_generator_spec(text)
    reference_spec = replace(
        spec, propensity=tuple(tuple(row) for row in _PRESETS_NUMPY[preset](k)),
    )
    _assert_generates_as_numpy_reference(spec, reference_spec, monkeypatch)


# The benchmark's two corpus specs (perfbench/workloads.py), at a fixed seed.
SESSION_10K = GeneratorSpec(
    seed=21, field_count=8, start_year=1970, years_span=40, papers_per_year=(250, 250),
    references=(3, 6), multi_tag_probability=0.1,
    lifecycle=PlantedLifecycle(focal_field=2, tau_drop_year=1984, zeta_rise_year=1996),
)
INGEST_50K = GeneratorSpec(
    seed=22, field_count=8, start_year=1950, years_span=50, papers_per_year=(1000, 1000),
    references=(2, 4), multi_tag_probability=0.1,
)


def test_generate_matches_numpy_reference_at_session_shape(monkeypatch):
    # The default propensity, planted.
    _assert_generates_as_numpy_reference(SESSION_10K, SESSION_10K, monkeypatch)


# -- the byte-exact reference: same bytes, same random() draws -----------

def _generated(module, spec, draw=None):
    """``module.generate_chunks(spec)`` joined, and the number of ``random()``
    calls it made. ``draw``, when given, is returned by every call in place
    of the seeded stream's value."""
    calls = 0

    class CountingRandom(Random):
        def random(self):
            nonlocal calls
            calls += 1
            return super().random() if draw is None else draw

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "Random", CountingRandom)
        text = "".join(module.generate_chunks(spec))
    return text, calls


def _first_difference(text, reference_text):
    """The first line of ``text`` that differs from ``reference_text``'s, or
    None if the two are equal. A failed ``==`` on megabytes of text would
    have pytest compute their whole diff."""
    if text == reference_text:
        return None
    lines = text.splitlines(keepends=True)
    reference_lines = reference_text.splitlines(keepends=True)
    at = next((i for i, pair in enumerate(zip(lines, reference_lines)) if pair[0] != pair[1]),
              min(len(lines), len(reference_lines)))
    return (f"line {at + 1}: {lines[at:at + 1]} where the reference has "
            f"{reference_lines[at:at + 1]}")


def _assert_generates_as_reference(spec, draw=None):
    text, calls = _generated(synth, spec, draw)
    reference_text, reference_calls = _generated(oracles, spec, draw)
    difference = _first_difference(text, reference_text)
    assert difference is None
    assert calls == reference_calls
    if draw is None:
        # The counting Random draws the seeded stream.
        assert _first_difference(generate(spec), text) is None
    return text


_SMALL = GeneratorSpec(seed=11, field_count=4, years_span=6, papers_per_year=(4, 9))
_PLANTED = PlantedLifecycle(focal_field=1, tau_drop_year=1971, zeta_rise_year=1973)


_REFERENCE_GRID = {
    **{f"k{k}": replace(_SMALL, seed=k, field_count=k) for k in (1, 2, 3, 8, 24)},
    **{f"k{k}-planted": replace(_SMALL, seed=k, field_count=k,
                                lifecycle=replace(_PLANTED, focal_field=k - 1))
       for k in (2, 3, 8, 24)},
    "papers-0:0": replace(_SMALL, papers_per_year=(0, 0)),
    "papers-0:12": replace(_SMALL, papers_per_year=(0, 12)),
    "refs-0:0": replace(_SMALL, references=(0, 0)),
    "refs-0:9-planted": replace(_SMALL, references=(0, 9), lifecycle=_PLANTED),
    "keywords-0:0": replace(_SMALL, keywords_per_paper=(0, 0)),
    "keyword-pool-0": replace(_SMALL, keyword_pool_size=0, keywords_per_paper=(0, 0)),
    "keyword-pool-1": replace(_SMALL, keyword_pool_size=1, keywords_per_paper=(1, 1)),
    "keyword-pool-1-keywords-0:1": replace(_SMALL, keyword_pool_size=1,
                                           keywords_per_paper=(0, 1)),
    "keyword-pool-8-all": replace(_SMALL, keyword_pool_size=8, keywords_per_paper=(8, 8)),
    "author-pool-1": replace(_SMALL, author_pool_size=1, authors_per_paper=(1, 1)),
    "author-pool-1-authors-0:1": replace(_SMALL, author_pool_size=1, authors_per_paper=(0, 1)),
    "author-pool-5-all": replace(_SMALL, author_pool_size=5, authors_per_paper=(5, 5)),
    "venues-1": replace(_SMALL, venue_count=1),
    "multi-tag-0": replace(_SMALL, multi_tag_probability=0.0),
    "multi-tag-1": replace(_SMALL, multi_tag_probability=1.0),
    "k2-multi-tag-1-planted": replace(_SMALL, field_count=2, multi_tag_probability=1.0,
                                      lifecycle=_PLANTED),
    "k3-multi-tag-1-planted": replace(_SMALL, field_count=3, multi_tag_probability=1.0,
                                      lifecycle=_PLANTED),
    "k3-identity-planted": replace(_SMALL, field_count=3, lifecycle=_PLANTED,
                                   propensity=tuple(map(tuple, propensity_identity(3)))),
    "session-10k": SESSION_10K,
    "ingest-50k": INGEST_50K,
}


@pytest.mark.parametrize("spec", _REFERENCE_GRID.values(), ids=_REFERENCE_GRID)
def test_generate_matches_the_reference_generator(spec):
    _assert_generates_as_reference(spec)


@st.composite
def generator_specs(draw):
    k = draw(st.integers(1, len(DEFAULT_FIELDS)))
    start = draw(st.integers(1900, 2090))
    span = draw(st.integers(1, 8))

    def int_range(lo, hi):
        a, b = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
        return min(a, b), max(a, b)

    keywords = int_range(0, 10)
    authors = int_range(0, 6)
    preset = draw(st.sampled_from([None, propensity_identity, propensity_uniform,
                                   propensity_mixed]))
    if preset is propensity_mixed:
        preset = partial(propensity_mixed, self_weight=draw(st.floats(0.0, 1.0)))
    lifecycle = None
    if k > 1 and span > 1 and draw(st.booleans()):
        tau = draw(st.integers(start, start + span - 2))
        lifecycle = PlantedLifecycle(draw(st.integers(0, k - 1)), tau,
                                     draw(st.integers(tau + 1, start + span - 1)))
    return GeneratorSpec(
        seed=draw(st.integers(0, 2**40)), field_count=k, start_year=start, years_span=span,
        papers_per_year=int_range(0, 12), references=int_range(0, 9),
        propensity=None if preset is None else tuple(map(tuple, preset(k))),
        multi_tag_probability=draw(st.floats(0.0, 1.0)),
        keyword_pool_size=draw(st.integers(keywords[1], 14)),
        keyword_overlap_fraction=draw(st.floats(0.0, 1.0)),
        keywords_per_paper=keywords,
        authors_per_paper=authors,
        author_pool_size=draw(st.integers(max(authors[1], 1), 9)),
        venue_count=draw(st.integers(1, 4)),
        lifecycle=lifecycle,
    )


@settings(max_examples=80, deadline=None)
@given(generator_specs())
def test_generate_matches_the_reference_on_random_specs(spec):
    _assert_generates_as_reference(spec)


def test_generate_matches_the_reference_at_the_largest_draw():
    # Every random() call returns its largest value, so each uniform integer is
    # its range's top and each weighted index the last field of positive weight.
    # Samples of two or more would never end, hence at most one of each.
    spec = replace(_SMALL, field_count=8, references=(0, 9), keywords_per_paper=(0, 1),
                   authors_per_paper=(0, 1), lifecycle=_PLANTED)
    text = _assert_generates_as_reference(spec, draw=1 - 2**-53)
    assert "#index1\n" in text and "#cVENUE-3\n" in text and "#cVENUE-0\n" not in text


def test_a_draw_never_reaches_past_the_top_of_its_range():
    # random() is at most 1 - 2**-53, and for every n < 2**53 that times n is
    # below n, so lo + int(random() * n) is at most lo + n - 1: the generator
    # needs no clamp to the top of a range of n integers.
    top = 1 - 2**-53
    assert top == math.nextafter(1.0, 0.0)
    spans = [*range(1, 2**20), *(2**e + d for e in range(20, 53) for d in (-1, 0, 1)), 2**53 - 1]
    assert all(int(top * n) == n - 1 for n in spans)


_EDGE = 1.0e-5  # within np.allclose's 1e-9 + 1e-5 of 1
_PAST_EDGE = 1.0011e-5


@pytest.mark.parametrize("row, accepted", [
    ((0.5, 0.5 + _EDGE), True),
    ((0.5, 0.5 - _EDGE), True),
    ((0.5, 0.5 + _PAST_EDGE), False),
    ((0.5, 0.5 - _PAST_EDGE), False),
    ((0.125,) * 7 + (0.125 + _EDGE,) + (0.0,) * 3, True),
    ((0.125,) * 7 + (0.125 - _EDGE,) + (0.0,) * 3, True),
    ((0.125,) * 7 + (0.125 + _PAST_EDGE,) + (0.0,) * 3, False),
    ((0.125,) * 7 + (0.125 - _PAST_EDGE,) + (0.0,) * 3, False),
    ((-0.0, 1.0), True),
    ((1.5, -0.5), False),
    ((-1e-300, 1.0), False),
    ((math.nan, 1.0), False),
    ((math.inf, 0.0), False),
    ((math.inf, -math.inf), False),
    ((-math.inf, 1.0), False),
])
def test_validate_gives_the_numpy_verdict(row, accepted):
    k = len(row)
    propensity = (row, *(tuple(r) for r in propensity_identity(k)[1:]))
    spec = GeneratorSpec(field_count=k, propensity=propensity)
    verdicts = []
    for check in (GeneratorSpec.validate, validate_propensity_numpy):
        try:
            check(spec)
        except AnalysisError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    assert verdicts == [accepted, accepted]


def test_ragged_propensity_rejected():
    ragged = ((1.0, 0.0), (1.0,))
    # numpy refused to build the array; the plain check names the shape.
    with pytest.raises(ValueError):
        validate_propensity_numpy(GeneratorSpec(field_count=2, propensity=ragged))
    for propensity in (ragged, ((1.0,), (0.0, 1.0)), ((1.0, 0.0),) * 3):
        with pytest.raises(AnalysisError, match="shape does not match"):
            GeneratorSpec(field_count=2, propensity=propensity).validate()


def test_propensity_presets_are_python_floats():
    for k in (1, 2, 9):
        for build in (propensity_identity, propensity_uniform, propensity_mixed):
            matrix = build(k)
            assert len(matrix) == k
            assert all(type(x) is float for row in matrix for x in row)
