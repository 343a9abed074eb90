"""Trajectory indicators: tau/zeta series, partners, cotag, evidence, phases."""

import pytest

from citefields import (
    FRACTIONAL, AnalysisError, Corpus, FieldTrajectory, GeneratorSpec, TimeWindow,
    build_graph, cotag_report, detect_phases, evidence_series,
    field_trajectory, generate_corpus, tau_series, top_partner_fields,
    zeta_series,
)
from citefields.trajectory import _ratio_level_split, _two_segment_split
from conftest import corpus_of, rec
from oracles import (
    author_breadth_direct, citing_field_counts_direct, field_counts_direct, tau_direct,
)


def test_tau_all_in_field_is_zero():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 3)),
        rec(2, year=1999, fields=(0,)), rec(3, year=1999, fields=(0,)),
    )
    graph = build_graph(corpus)
    assert tau_series(graph, corpus, 0, [2000])[2000] == 0.0


def test_tau_pooled_two_cross_one_same():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 3)),
        rec(4, year=2000, fields=(0,), refs=(5,)),
        rec(2, year=1999, fields=(1,)), rec(3, year=1999, fields=(2,)),
        rec(5, year=1999, fields=(0,)),
    )
    graph = build_graph(corpus)
    assert tau_series(graph, corpus, 0, [2000])[2000] == 2.0


def test_tau_shared_field_rule_with_multi_tagged_cited():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 3)),
        rec(2, year=1999, fields=(0, 1)),  # shares field 0 -> same
        rec(3, year=1999, fields=(1,)),    # cross
    )
    graph = build_graph(corpus)
    assert tau_series(graph, corpus, 0, [2000])[2000] == 1.0


def test_tau_missing_when_no_same_field_refs():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2,)),
        rec(2, year=1999, fields=(1,)),
    )
    graph = build_graph(corpus)
    assert tau_series(graph, corpus, 0, [2000, 2001]) == {2000: None, 2001: None}


def test_tau_per_paper_mode():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 5)),     # 0 cross / 2 same
        rec(4, year=2000, fields=(0,), refs=(3, 6, 7)),  # 2 cross / 1 same
        rec(2, year=1999, fields=(0,)), rec(3, year=1999, fields=(1,)),
        rec(5, year=1999, fields=(0,)), rec(6, year=1999, fields=(0,)),
        rec(7, year=1999, fields=(2,)),
    )
    graph = build_graph(corpus)
    # Pooled over the year's papers: 2 cross / 3 same, not the per-paper
    # mean (0/2 + 2/1) / 2 = 1.0.
    assert tau_series(graph, corpus, 0, [2000])[2000] == pytest.approx(2 / 3)


def test_tau_matches_direct_oracle():
    corpus = generate_corpus(GeneratorSpec(seed=31, field_count=4, years_span=10,
                                           multi_tag_probability=0.25))
    graph = build_graph(corpus)
    for y in corpus.years():
        got = tau_series(graph, corpus, 0, [y])[y]
        want = tau_direct(corpus, 0, y)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_zeta_only_self_citations_zero():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,)),
        rec(2, year=2001, fields=(0,), refs=(1,)),
    )
    graph = build_graph(corpus)
    assert zeta_series(graph, corpus, 0, [2001])[2001] == 0.0


def test_zeta_three_external_two_internal():
    records = [rec(1, year=2000, fields=(0,)), rec(2, year=2000, fields=(0,))]
    cid = 10
    for fields in ((1,), (1,), (2,)):  # external citers
        records.append(rec(cid, year=2003, fields=fields, refs=(1,)))
        cid += 1
    for _ in range(2):  # internal citers
        records.append(rec(cid, year=2003, fields=(0,), refs=(2,)))
        cid += 1
    corpus = corpus_of(*records)
    graph = build_graph(corpus)
    assert zeta_series(graph, corpus, 0, [2003])[2003] == 1.5


def test_zeta_indexed_by_citing_year_by_default():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,)),
        rec(2, year=2005, fields=(1,), refs=(1,)),
        rec(3, year=2005, fields=(0,), refs=(1,)),
    )
    graph = build_graph(corpus)
    by_citing = zeta_series(graph, corpus, 0, [2000, 2005])
    assert by_citing[2000] is None
    assert by_citing[2005] == 1.0


def test_top_partner_fields_referred_and_ties():
    records = [
        rec(1, year=2000, fields=(0,), refs=(10, 11, 12, 13)),
        rec(10, year=1999, fields=(1,)), rec(11, year=1999, fields=(1,)),
        rec(12, year=1999, fields=(2,)), rec(13, year=1999, fields=(3,)),
    ]
    corpus = corpus_of(*records)
    graph = build_graph(corpus)
    partners = top_partner_fields(graph, corpus, 0, direction="referred")
    assert partners == [(1, 2.0), (2, 1.0), (3, 1.0)]  # tie 2 vs 3 by index
    assert top_partner_fields(graph, corpus, 0, direction="referred", k=1) == [(1, 2.0)]


def test_top_partner_fields_single_partner():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2,)), rec(2, year=1999, fields=(1,)),
    )
    graph = build_graph(corpus)
    assert top_partner_fields(graph, corpus, 0, direction="referred") == [(1, 1.0)]


def test_top_partner_fields_citing_window_on_citers():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,)),
        rec(2, year=2001, fields=(1,), refs=(1,)),
        rec(3, year=2010, fields=(2,), refs=(1,)),
    )
    graph = build_graph(corpus)
    partners = top_partner_fields(
        graph, corpus, 0, window=TimeWindow(2000, 2005), direction="citing"
    )
    assert partners == [(1, 1.0)]


def test_top_partner_excludes_focal_field():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 3)),
        rec(2, year=1999, fields=(0,)), rec(3, year=1999, fields=(1,)),
    )
    graph = build_graph(corpus)
    partners = top_partner_fields(graph, corpus, 0, direction="referred")
    assert partners == [(1, 1.0)]


@pytest.mark.parametrize("window", [None, TimeWindow(1972, 1976)])
@pytest.mark.parametrize("direction", ["referred", "citing"])
def test_top_partner_fields_fractional_matches_direct_counts(direction, window):
    spec = GeneratorSpec(seed=13, field_count=5, years_span=10, multi_tag_probability=0.4)
    corpus = generate_corpus(spec)
    graph = build_graph(corpus, FRACTIONAL)
    focal = 1
    if direction == "referred":
        want: dict[int, float] = {}
        for pid in corpus:
            p = corpus[pid]
            if focal in p.fields and (window is None or window.contains(p.year)):
                for f, v in field_counts_direct(corpus, pid, FRACTIONAL).items():
                    want[f] = want.get(f, 0.0) + v
    else:
        want = citing_field_counts_direct(corpus, focal, window, FRACTIONAL)
    want.pop(focal, None)
    assert any(v != int(v) for v in want.values())  # fractions are in play
    partners = top_partner_fields(
        graph, corpus, focal, window=window, direction=direction, k=len(corpus.taxonomy)
    )
    assert partners == sorted(partners, key=lambda p: (-p[1], p[0]))
    assert dict(partners) == pytest.approx(want, rel=1e-12)


def test_cotag_counts_and_probability():
    records = []
    pid = 1
    for _ in range(4):  # co-tagged A+B
        records.append(rec(pid, year=1992, fields=(0, 1)))
        pid += 1
    for _ in range(5):  # multi-tagged with A but not B
        records.append(rec(pid, year=1992, fields=(0, 2)))
        pid += 1
    records.append(rec(pid, year=1992, fields=(0,)))  # single-tag, not in base
    corpus = corpus_of(*records)
    [row] = cotag_report(corpus, 0, 1, [TimeWindow(1990, 1995)]).rows
    count, base, probability = row[4:7]
    assert count == 4
    assert base == 9
    assert probability == pytest.approx(4 / 9)


def test_cotag_no_cotagged_papers():
    corpus = corpus_of(rec(1, fields=(0,)))
    [row] = cotag_report(corpus, 0, 1, [TimeWindow(1900, 2100)]).rows
    assert row[4] == 0 and row[6] is None


def test_cotag_report_percentage_change():
    records = []
    pid = 1
    for _ in range(10):
        records.append(rec(pid, year=1986, fields=(0, 1)))
        pid += 1
    for _ in range(16):
        records.append(rec(pid, year=1992, fields=(0, 1)))
        pid += 1
    corpus = corpus_of(*records)
    report = cotag_report(corpus, 0, 1, [TimeWindow(1984, 1989), TimeWindow(1990, 1995)])
    assert report.rows[0][7] is None
    assert report.rows[1][7] == pytest.approx(60.0)


def test_evidence_series_minimal_corpus():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), authors=("Solo Author",)),
        rec(2, year=2001, fields=(0,), authors=("Solo Author",), refs=(1,)),
    )
    graph = build_graph(corpus)
    report = evidence_series(graph, corpus)
    rows = {row[0]: row for row in report.rows}
    assert rows[2000][2] == 0.0   # multi-field fraction
    assert rows[2000][5] == 1.0   # team size
    assert rows[2000][6] == 1.0   # author field breadth
    assert rows[2000][3] is None  # no refs that year
    assert rows[2001][3] == 1.0   # one ref into one field
    assert rows[2001][4] == 0.0   # tau: in-field citation


def test_evidence_distinct_fields_cited():
    corpus = corpus_of(
        rec(1, year=2000, fields=(0,), refs=(2, 3, 4)),
        rec(2, year=1999, fields=(1,)), rec(3, year=1999, fields=(2,)),
        rec(4, year=1999, fields=(2,)),
    )
    graph = build_graph(corpus)
    report = evidence_series(graph, corpus, years=[2000])
    assert report.rows[0][3] == 2.0  # fields {1, 2}


def test_evidence_author_expertise_is_cumulative():
    corpus = corpus_of(
        rec(1, year=1998, fields=(0,), authors=("Jo Coder",)),
        rec(2, year=1999, fields=(1,), authors=("Jo Coder",)),
        rec(3, year=2000, fields=(2,), authors=("Jo Coder", "New Person")),
        rec(4, year=1999, fields=(3,), authors=("New Person",)),
    )
    graph = build_graph(corpus)
    report = evidence_series(graph, corpus, years=[2000])
    # Jo Coder's history {0,1,2} union New Person's {2,3} -> 4 fields
    assert report.rows[0][6] == 4.0


def test_evidence_author_breadth_collapses_names_and_same_year_papers():
    corpus = corpus_of(
        rec(1, year=1999, fields=(0,), authors=("Jo Coder",)),
        rec(2, year=1999, fields=(1,), authors=(" jo coder ",)),
        rec(3, year=1999, fields=(2,), authors=("Other One",)),
        rec(4, year=2000, fields=(3,), authors=("JO CODER", "Other One")),
        rec(5, year=2001, fields=(4,), authors=("Other One",)),
    )
    graph = build_graph(corpus)
    breadth = {row[0]: row[6] for row in evidence_series(graph, corpus).rows}
    # 1999: both Jo Coder papers see {0, 1}; Other One sees {2}.
    # 2000: {0, 1, 2, 3}. 2001: Other One's {2, 3, 4}.
    assert breadth == {1999: (2 + 2 + 1) / 3, 2000: 4.0, 2001: 3.0}
    for year in corpus.years():
        assert breadth[year] == author_breadth_direct(corpus, year)


@pytest.mark.parametrize("seed", [5, 17, 42])
def test_evidence_author_breadth_matches_direct_oracle(seed):
    corpus = generate_corpus(GeneratorSpec(
        seed=seed, field_count=8, years_span=12, papers_per_year=(15, 25),
        author_pool_size=120, multi_tag_probability=0.3,
    ))
    # Also a corpus of the 1974-1979 papers alone, whose references dangle.
    part = Corpus((corpus[p] for p in corpus.papers_in(window=TimeWindow(1974, 1979))),
                  corpus.taxonomy)
    for c in (corpus, part):
        report = evidence_series(build_graph(c), c, years=list(range(1968, 1983)))
        for row in report.rows:
            assert row[6] == author_breadth_direct(c, row[0])


def test_evidence_multi_field_fraction_bounds():
    corpus = generate_corpus(GeneratorSpec(seed=55, years_span=8, multi_tag_probability=0.4))
    graph = build_graph(corpus)
    report = evidence_series(graph, corpus)
    for row in report.rows:
        if row[2] is not None:
            assert 0.0 <= row[2] <= 1.0
        if row[3] is not None:
            assert 1.0 <= row[3] <= len(corpus.taxonomy)


# -- phase detection -------------------------------------------------------

def _trajectory(years, tau, zeta):
    return FieldTrajectory(field=0, years=tuple(years), tau=tuple(tau), zeta=tuple(zeta))


def test_two_segment_split_exact():
    values = [3.0 if i < 6 else 0.5 for i in range(12)]
    assert _two_segment_split(values, "drop") == 6
    assert _two_segment_split(values, "rise") is None
    points = list(zip(range(2000, 2012), values))
    assert _ratio_level_split(points, "drop") == (2005, 3.0, 0.5)


def test_detect_phases_exact_drop_flat_zeta():
    years = list(range(2000, 2012))
    tau = [3.0] * 6 + [0.5] * 6
    zeta = [0.2] * 12
    detection = detect_phases(_trajectory(years, tau, zeta))
    assert detection.tau_change_year == 2005
    assert detection.zeta_change_year is None
    labels = [(p.label, p.start, p.end) for p in detection.phases]
    assert labels == [("growing", 2000, 2005), ("matured", 2006, 2011)]
    assert detection.phases[0].segment_mean == pytest.approx(3.0)
    assert detection.phases[1].segment_mean == pytest.approx(0.5)


def test_detect_phases_full_lifecycle():
    years = list(range(2000, 2018))
    tau = [3.0] * 6 + [0.4] * 12
    zeta = [0.1] * 12 + [1.5] * 6
    detection = detect_phases(_trajectory(years, tau, zeta))
    assert detection.tau_change_year == 2005
    assert detection.zeta_change_year == 2011
    labels = [(p.label, p.start, p.end) for p in detection.phases]
    assert labels == [
        ("growing", 2000, 2005),
        ("matured", 2006, 2011),
        ("interdisciplinary", 2012, 2017),
    ]
    assert detection.phases[2].segment_mean == pytest.approx(1.5)


def test_detect_phases_all_zero_collapses_to_matured():
    years = list(range(2000, 2012))
    detection = detect_phases(_trajectory(years, [0.0] * 12, [0.0] * 12))
    assert [p.label for p in detection.phases] == ["matured"]
    assert detection.phases[0].start == 2000 and detection.phases[0].end == 2011
    assert detection.tau_change_year is None
    assert detection.diagnostics


def test_single_field_in_field_corpus_collapses_to_matured():
    records = []
    for i, year in enumerate(range(2000, 2012)):
        refs = (i,) if i else ()
        records.append(rec(i + 1, year=year, fields=(0,), refs=refs))
    corpus = corpus_of(*records)
    graph = build_graph(corpus)
    trajectory = field_trajectory(graph, corpus, 0)
    defined_tau = [v for v in trajectory.tau if v is not None]
    defined_zeta = [v for v in trajectory.zeta if v is not None]
    assert set(defined_tau) == {0.0} and set(defined_zeta) == {0.0}
    detection = detect_phases(trajectory, min_years=10)
    assert [p.label for p in detection.phases] == ["matured"]


def test_detect_phases_rise_before_drop_no_interdisciplinary():
    years = list(range(2000, 2016))
    tau = [3.0] * 10 + [0.4] * 6      # drop at 2009
    zeta = [0.1] * 4 + [1.5] * 12     # rise at 2003, before the drop
    detection = detect_phases(_trajectory(years, tau, zeta))
    assert detection.tau_change_year == 2009
    assert detection.zeta_change_year is None
    assert [p.label for p in detection.phases] == ["growing", "matured"]
    assert any("precede" in d for d in detection.diagnostics)


def test_detect_phases_scale_invariant():
    years = list(range(2000, 2018))
    tau = [3.1, 2.9, 3.0, 3.2, 2.8, 3.0] + [0.5, 0.4, 0.6] * 4
    zeta = [0.1, 0.12, 0.09] * 4 + [1.4, 1.6, 1.5] * 2
    base = detect_phases(_trajectory(years, tau, zeta))
    scaled = detect_phases(_trajectory(
        years, [v * 37.5 for v in tau], [v * 0.004 for v in zeta]
    ))
    assert base.tau_change_year == scaled.tau_change_year
    assert base.zeta_change_year == scaled.zeta_change_year
    assert [p.label for p in base.phases] == [p.label for p in scaled.phases]


def test_detect_phases_series_too_short():
    years = list(range(2000, 2006))
    with pytest.raises(AnalysisError):
        detect_phases(_trajectory(years, [1.0] * 6, [0.0] * 6))


def test_detect_phases_ignores_missing_years():
    years = list(range(2000, 2014))
    tau = [3.0, 3.0, None, 3.0, 3.0, 3.0, 3.0, 0.5, 0.5, None, 0.5, 0.5, 0.5, 0.5]
    detection = detect_phases(_trajectory(years, tau, [None] * 14))
    assert detection.tau_change_year == 2006


def test_planted_lifecycle_recovered():
    from citefields import PlantedLifecycle

    spec = GeneratorSpec(
        seed=1, field_count=4, start_year=1970, years_span=30,
        papers_per_year=(14, 18), references=(4, 6),
        multi_tag_probability=0.02,
        lifecycle=PlantedLifecycle(focal_field=2, tau_drop_year=1979, zeta_rise_year=1989),
    )
    corpus = generate_corpus(spec)
    graph = build_graph(corpus)
    trajectory = field_trajectory(graph, corpus, 2)
    detection = detect_phases(trajectory)
    assert detection.tau_change_year is not None
    assert abs(detection.tau_change_year - 1979) <= 1
    assert detection.zeta_change_year is not None
    assert abs(detection.zeta_change_year - 1989) <= 1
    labels = [p.label for p in detection.phases]
    assert labels == ["growing", "matured", "interdisciplinary"]
