"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from citefields import (
    FieldTaxonomy, GeneratorSpec, PlantedLifecycle, STRICT, TimeWindow,
    acp_bucket_test, build_graph, build_keyword_sets, citation_fraction_matrix,
    detect_phases, field_trajectory, generate, generate_corpus,
    parse_corpus, rank_fields, reciprocity_pearson, serialize_corpus,
)
from citefields.diversity import kdi_paper, rank_order, rdi_paper
from citefields.impact import bucket_assignment, citations_received
from conftest import GOLDEN_RECORD, corpus_of, rec
from oracles import (
    acp_direct, bucket_split_direct, cp_direct, entropy_direct,
    fraction_matrix_direct, kdi_direct, pearson_raw_moments, rdi_direct,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE C{number} {name}: PASS")


def test_c1_golden_parse_and_byte_stable_round_trip():
    with criterion(1, "golden parse + byte-stable round trip"):
        taxonomy = FieldTaxonomy.default()
        corpus, report = parse_corpus(GOLDEN_RECORD, taxonomy, strictness=STRICT)
        assert report.parsed == 1 and not report.diagnostics
        paper = corpus[134672]
        assert paper.year == 2007
        assert paper.venue == "DAC"
        assert len(paper.authors) == 3
        assert paper.fields == frozenset({taxonomy.index_of("Computer Architecture")})
        assert len(paper.keywords) == 10
        assert len(paper.references) == 9
        assert paper.abstract.startswith("In 90-nm technology")
        once = serialize_corpus(corpus)
        corpus2, _ = parse_corpus(once, taxonomy, strictness=STRICT)
        assert corpus2 == corpus
        assert serialize_corpus(corpus2) == once


def test_c2_entropy_oracles_and_analytic_values():
    with criterion(2, "entropy oracles (1000 randomized instances + analytic)"):
        rng = random.Random(20_240_601)
        universe = [f"kw{i}" for i in range(14)]
        for trial in range(1000):
            n_fields = rng.randint(1, 5)
            # randomized reference split across single- and multi-field targets
            records = []
            refs = []
            next_id = 100
            for _ in range(rng.randint(1, 20)):
                tags = rng.sample(range(n_fields), rng.randint(1, min(2, n_fields)))
                records.append(rec(next_id, fields=tuple(tags)))
                refs.append(next_id)
                next_id += 1
            source_kw = tuple(rng.sample(universe, rng.randint(1, 6)))
            records.append(rec(1, fields=(0,), refs=tuple(refs), keywords=source_kw))
            for f in range(n_fields):
                pool = tuple(rng.sample(universe, rng.randint(1, 9)))
                records.append(rec(next_id, fields=(f,), keywords=pool))
                next_id += 1
            corpus = corpus_of(*records)
            graph = build_graph(corpus)
            got_rdi = rdi_paper(graph, corpus, 1)
            want_rdi = rdi_direct(corpus, 1)
            assert got_rdi is not None
            assert got_rdi == pytest.approx(want_rdi, rel=1e-12), trial
            sets = build_keyword_sets(corpus)
            pools = {f: set(sets[f]) for f in corpus.taxonomy.indices}
            got_kdi = kdi_paper(corpus, sets, 1)
            want_kdi = kdi_direct(corpus, pools, 1)
            assert got_kdi == pytest.approx(want_kdi, rel=1e-12), trial

        # analytic cases
        def rdi_of_split(split):
            records, refs, nid = [], [], 100
            for f, count in split.items():
                for _ in range(count):
                    records.append(rec(nid, fields=(f,)))
                    refs.append(nid)
                    nid += 1
            records.append(rec(1, fields=(0,), refs=tuple(refs)))
            c = corpus_of(*records)
            return rdi_paper(build_graph(c), c, 1)

        assert abs(rdi_of_split({1: 7}) - 0.0) <= 1e-12
        assert abs(rdi_of_split({1: 2, 2: 2}) - math.log(2)) <= 1e-12
        two_one = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert abs(rdi_of_split({1: 2, 2: 1}) - two_one) <= 1e-12
        assert abs(two_one - 0.636514) < 5e-7


def test_c3_citation_oracles_on_50_seeds():
    with criterion(3, "citation oracles, 50 seeds, quadratic brute force"):
        for seed in range(50):
            spec = GeneratorSpec(
                seed=seed, field_count=4, start_year=1988, years_span=10,
                papers_per_year=(12, 18), references=(2, 5),
                multi_tag_probability=0.15,
            )
            corpus = generate_corpus(spec)
            assert len(corpus) <= 200
            graph = build_graph(corpus)

            for pid in corpus:
                got = len(citations_received(graph, corpus, pid))
                assert got == cp_direct(corpus, pid), (seed, pid)

            window = TimeWindow(1990, 1994)
            got = citation_fraction_matrix(graph, corpus, window)
            want = fraction_matrix_direct(corpus, len(corpus.taxonomy), window)
            for i in range(len(want)):
                for j in range(len(want)):
                    if want[i][j] is None:
                        assert math.isnan(got[i][j]), (seed, i, j)
                    else:
                        assert got[i][j] == pytest.approx(want[i][j], rel=1e-12)

            for target in range(1, 4):
                b1, b2 = bucket_split_direct(corpus, 0, target, window)
                if not (b1 or b2):
                    continue
                report = acp_bucket_test(graph, corpus, 0, target, window)
                rows = {row[2]: row for row in report.rows}
                total = len(b1) + len(b2)
                assert rows["bucket-1"][3] == pytest.approx(100.0 * len(b1) / total)
                assert rows["bucket-2"][3] == pytest.approx(100.0 * len(b2) / total)
                for label, members in (("bucket-1", b1), ("bucket-2", b2)):
                    if members:
                        assert rows[label][4] == pytest.approx(
                            acp_direct(corpus, target, members), rel=1e-12
                        ), (seed, target)
                    else:
                        assert rows[label][4] is None


def test_c4_pearson_oracle_and_exact_symmetric():
    with criterion(4, "pearson oracle + symmetric r == 1.0"):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(3, 12)
            m = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
            m /= m.sum(axis=1, keepdims=True)
            for include in (True, False):
                r, points = reciprocity_pearson(m, include_diagonal=include)
                xs, ys = [], []
                for i in range(n):
                    for j in range(n):
                        if i == j and not include:
                            continue
                        xs.append(m[i, j])
                        ys.append(m[j, i])
                assert r == pytest.approx(pearson_raw_moments(xs, ys), rel=1e-12)
        for trial in range(20):
            n = rng.randint(2, 10)
            sym = np.empty((n, n))
            for i in range(n):
                for j in range(i, n):
                    sym[i, j] = sym[j, i] = rng.random()
            r, _points = reciprocity_pearson(sym)
            assert r == 1.0, trial


def test_c5_ranking_invariant_under_log_base_change():
    with criterion(5, "rank ordering invariant to log-base rescaling, 20 corpora"):
        scale = 1.0 / math.log(2.0)  # natural -> base-2 post-scaling
        for seed in range(20):
            spec = GeneratorSpec(
                seed=1000 + seed, field_count=6, years_span=10,
                papers_per_year=(10, 16), multi_tag_probability=0.2,
            )
            corpus = generate_corpus(spec)
            graph = build_graph(corpus)
            windows = [TimeWindow(1970, 1979), TimeWindow(1900, 2100)]
            for metric in ("rdi", "kdi"):
                report = rank_fields(graph, corpus, metric, windows)
                for window in windows:
                    values = {
                        row[2]: row[4]
                        for row in report.rows
                        if row[0] == window.start and row[4] is not None
                    }
                    rescaled = {f: v * scale for f, v in values.items()}
                    assert rank_order(values) == rank_order(rescaled), (seed, metric)


def test_c6_bucket_partition_and_rescaling():
    with criterion(6, "bucket partition + positive rescaling, 20 corpora"):
        for seed in range(20):
            spec = GeneratorSpec(
                seed=2000 + seed, field_count=5, years_span=10,
                papers_per_year=(10, 16),
            )
            corpus = generate_corpus(spec)
            graph = build_graph(corpus)
            values = [v for v in (rdi_paper(graph, corpus, pid) for pid in corpus)
                      if v is not None]
            assignment, _lo, _hi, _deg = bucket_assignment(values, 5)
            assert len(assignment) == len(values)  # every paper exactly once
            populations = [0] * 5
            for b in assignment:
                assert 0 <= b < 5
                populations[b] += 1
            assert sum(populations) == len(values)
            factor = 0.001 + (seed * 37.77)
            scaled, *_ = bucket_assignment([v * factor for v in values], 5)
            assert scaled == assignment, seed


def test_c7_planted_lifecycle_recovery_10_seeds():
    with criterion(7, "planted lifecycle recovery within +-1 year, 10 seeds"):
        y1, y2 = 1979, 1989
        for seed in range(10):
            spec = GeneratorSpec(
                seed=3000 + seed, field_count=4, start_year=1970, years_span=30,
                papers_per_year=(24, 30), references=(4, 6),
                multi_tag_probability=0.02,
                lifecycle=PlantedLifecycle(
                    focal_field=2, tau_drop_year=y1, zeta_rise_year=y2,
                ),
            )
            corpus = generate_corpus(spec)
            graph = build_graph(corpus)
            trajectory = field_trajectory(graph, corpus, 2)
            detection = detect_phases(trajectory)
            assert detection.tau_change_year is not None, seed
            assert abs(detection.tau_change_year - y1) <= 1, seed
            assert detection.zeta_change_year is not None, seed
            assert abs(detection.zeta_change_year - y2) <= 1, seed
            labels = [p.label for p in detection.phases]
            assert labels == ["growing", "matured", "interdisciplinary"], seed
            by_label = {p.label: p for p in detection.phases}
            # qualitative shape: reference ratio high then low, incoming
            # cross-field ratio rising later
            assert by_label["growing"].segment_mean > by_label["matured"].segment_mean
            zeta_early = [
                v for year, v in zip(trajectory.years, trajectory.zeta)
                if v is not None and year <= detection.zeta_change_year
            ]
            assert by_label["interdisciplinary"].segment_mean > (
                sum(zeta_early) / len(zeta_early)
            ), seed


def test_c8_reciprocity_direction_on_planted_corpora():
    with criterion(8, "bucket-1 ACP exceeds bucket-2 ACP on planted corpora"):
        for seed in range(5):
            rng = random.Random(4000 + seed)
            records = []
            # citable pool: fields 1 and 2
            pool1 = list(range(1, 9))
            pool2 = list(range(9, 17))
            for pid in pool1:
                records.append(rec(pid, year=1985, fields=(1,)))
            for pid in pool2:
                records.append(rec(pid, year=1985, fields=(2,)))
            bucket1_ids = list(range(20, 20 + rng.randint(3, 6)))
            bucket2_ids = list(range(40, 40 + rng.randint(3, 6)))
            for pid in bucket1_ids:  # 3 of 4 refs into the target field
                refs = tuple(rng.sample(pool1, 3)) + (rng.choice(pool2),)
                records.append(rec(pid, year=1991, fields=(0,), refs=refs))
            for pid in bucket2_ids:  # 1 of 4 refs into the target field
                refs = (rng.choice(pool1),) + tuple(rng.sample(pool2, 3))
                records.append(rec(pid, year=1992, fields=(0,), refs=refs))
            cid = 100
            for pid in bucket1_ids:  # heavy reciprocation
                for _ in range(rng.randint(4, 7)):
                    records.append(rec(cid, year=1997, fields=(1,), refs=(pid,)))
                    cid += 1
            for pid in bucket2_ids:  # light reciprocation
                for _ in range(rng.randint(0, 2)):
                    records.append(rec(cid, year=1997, fields=(1,), refs=(pid,)))
                    cid += 1
            corpus = corpus_of(*records)
            graph = build_graph(corpus)
            report = acp_bucket_test(graph, corpus, 0, 1, TimeWindow(1990, 1995))
            rows = {row[2]: row for row in report.rows}
            assert rows["bucket-1"][4] > rows["bucket-2"][4], seed
            assert report.metadata["acp_diff_pct"] > 0, seed


def test_c9_throughput_100k_records():
    with criterion(9, "100k-record parse + graph build under 60 s"):
        spec = GeneratorSpec(
            seed=99, field_count=8, start_year=1950, years_span=50,
            papers_per_year=(2000, 2000), references=(2, 4),
            multi_tag_probability=0.1,
        )
        text = generate(spec)
        assert text.count("#index") == 100_000

        class _OneShotStream:
            """Line-iterable that forbids whole-file reads: the parser must stream."""

            def __init__(self, payload: str):
                self._lines = iter(payload.splitlines(keepends=True))

            def __iter__(self):
                return self._lines

        start = time.perf_counter()
        corpus, report = parse_corpus(_OneShotStream(text), strictness=STRICT)
        graph = build_graph(corpus)
        elapsed = time.perf_counter() - start
        assert len(corpus) == 100_000
        assert report.skipped == 0
        assert graph.total_edges > 100_000
        assert elapsed < 60.0, f"parse + graph build took {elapsed:.1f}s"
        print(f"\n  (parse + graph build on 100k records: {elapsed:.1f}s, "
              f"{graph.total_edges} edges)")
