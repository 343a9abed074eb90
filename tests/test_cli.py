"""CLI end-to-end: subcommands, determinism, report parseability, errors."""

import csv
import io
import json
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from citefields import GeneratorSpec, cli, corpusio, generate, parse_corpus, serialize_record
from citefields.cli import main
from citefields.records import YEAR_RANGE
from conftest import GOLDEN_RECORD, child_env, corpus_of, rec
from oracles import corpus_stats_direct


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(GOLDEN_RECORD, encoding="utf-8")
    return path


@pytest.fixture
def synth_file(tmp_path):
    out = tmp_path / "synth.txt"
    assert main(["generate", "--seed", "11", "--output", str(out)]) == 0
    return out


def _read_csv(text):
    """Parse our CSV dialect: '#'-prefixed metadata lines, then header+rows."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


def test_validate_golden_exit_zero(golden_file, capsys):
    assert main(["validate", str(golden_file)]) == 0
    meta, header, rows = _read_csv(capsys.readouterr().out)
    assert meta["parsed"] == "1"
    assert meta["skipped"] == "0"
    assert rows == []


def test_validate_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("#*A\n#t2000\n#fDatabases\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    meta, header, rows = _read_csv(capsys.readouterr().out)
    assert meta["skipped"] == "1"
    assert rows[0][3] == "missing-index"


def test_validate_strict_fails_with_error_record(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("#*A\n#t2000\n#fDatabases\n", encoding="utf-8")
    assert main(["validate", "--strict", str(path)]) == 1
    err = capsys.readouterr().err
    record = json.loads(err)
    assert record["error"]["type"] == "ParseError"


def test_unreadable_input_error_record(capsys):
    assert main(["stats", "/nonexistent/corpus.txt"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert "error" in record


def test_undecodable_line_keeps_other_records(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"#*First\n#t2000\n#fDatabases\n#index1\n\n"
                     b"#*Bad \xff title\n#t2001\n#fDatabases\n#index2\n")
    assert main(["validate", str(path)]) == 0
    meta, _header, rows = _read_csv(capsys.readouterr().out)
    assert (meta["parsed"], meta["skipped"]) == ("1", "1")
    assert [row[:4] for row in rows] == [["6", "2", "error", "encoding"]]
    assert main(["validate", "--strict", str(path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ParseError"
    assert record["error"]["message"].startswith("line 6, record 2:")


_ANALYSES = [
    ["stats"],
    ["rank", "--metric", "rdi", "--window", "1970:1980"],
    ["impact"],
    ["buckets", "--metric", "kdi"],
    ["reciprocity"],
    ["acp", "--focal", "AI", "--target", "Algo", "--window", "1970:1980"],
    ["trajectory", "--field", "AI"],
    ["evidence"],
    ["cotag", "--field-a", "AI", "--field-b", "Algo", "--window", "1970:1980"],
]


@pytest.mark.parametrize("text", ["", "#*No index\n#t2000\n#fAI\n"])
@pytest.mark.parametrize("argv", _ANALYSES, ids=[a[0] for a in _ANALYSES])
def test_corpus_without_records_fails_every_analysis(argv, text, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(text, encoding="utf-8")
    command, *flags = argv
    assert main([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "AnalysisError"
    assert main(["validate", str(path)]) == 0


_EMPTY_SPANS = [
    ["rank", "--metric", "rdi", "--window", "2007:2007", "--window", "1970:1980"],
    ["impact", "--window", "1970:1980"],
    ["buckets", "--metric", "rdi", "--window", "1970:1980"],
    ["reciprocity", "--window", "1970:1980"],
    ["acp", "--focal", "ARC", "--target", "AI", "--window", "1970:1980"],
    ["trajectory", "--field", "ARC", "--years", "1970:1980"],
    ["evidence", "--years", "1970:1972"],
    ["cotag", "--field-a", "AI", "--field-b", "ARC", "--window", "1970:1980"],
]


@pytest.mark.parametrize("argv", _EMPTY_SPANS, ids=[a[0] for a in _EMPTY_SPANS])
def test_window_without_papers_fails_every_analysis(argv, golden_file, capsys):
    # The golden record is the corpus's only paper, published in 2007.
    command, *flags = argv
    assert main([command, str(golden_file), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "AnalysisError"
    assert "1970:19" in error["message"]


@pytest.mark.parametrize("years", [[], ["--years", "2007:2007"]], ids=["all", "years"])
def test_trajectory_of_field_without_papers_fails(years, golden_file, capsys):
    # The golden record is an ARC paper; no paper is tagged AI.
    assert main(["trajectory", str(golden_file), "--field", "AI", *years]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"type": "AnalysisError", "message": "field has no papers"}


def test_unexpected_exception_becomes_error_record(golden_file, capsys, monkeypatch):
    def broken(_args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "stats", broken)
    assert main(["stats", str(golden_file)]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": {"type": "RuntimeError", "message": "boom"}}


def test_unknown_flag_rejected_before_work(golden_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["stats", str(golden_file), "--bogus-flag"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["buckets", "--metric", "rdi", "--buckets", "0"],
    ["impact", "--horizon", "0"],
    ["buckets", "--metric", "rdi", "--horizon", "-3"],
    ["trajectory", "--field", "AI", "--phases", "--min-years", "1"],
    ["acp", "--focal", "AI", "--target", "Algo", "--window", "1975:1985",
     "--threshold", "2"],
    ["acp", "--focal", "AI", "--target", "Algo", "--window", "1975:1985",
     "--threshold", "nan"],
    # A year is ASCII digits only, as in #t: int() would take each of these.
    ["rank", "--metric", "rdi", "--window", "1_970:1980"],
    ["evidence", "--years", "+1970:1980"],
    ["reciprocity", "--window", "\u0661\u0669\u0667\u0660:1980"],
])
def test_out_of_range_numeric_flag_is_usage_error(argv, synth_file, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc_info:
        main([command, str(synth_file), *flags])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err
    assert flags[-2] in err  # names the offending flag


def test_hit_rate_without_top_share_is_usage_error(synth_file, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["impact", str(synth_file), "--hit-rate"])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--hit-rate requires --top-share" in captured.err


def test_stats_output(synth_file, capsys):
    assert main(["stats", str(synth_file)]) == 0
    meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["field_abbr", "papers", "share"]
    assert "multi_field_fraction" in meta


def test_rank_one_table_per_window(synth_file, capsys):
    assert main([
        "rank", str(synth_file), "--metric", "rdi",
        "--window", "1970:1975", "--window", "1976:1989",
    ]) == 0
    meta, header, rows = _read_csv(capsys.readouterr().out)
    starts = {row[0] for row in rows}
    assert starts == {"1970", "1976"}
    assert len(rows) == 2 * 24


def test_rank_kdi_and_flags(synth_file, capsys):
    assert main([
        "rank", str(synth_file), "--metric", "kdi",
        "--window", "1970:1989", "--keyword-scope", "corpus-global",
    ]) == 0
    meta, _header, rows = _read_csv(capsys.readouterr().out)
    assert "keywords=corpus-global" in meta["mode_flags"]


def test_impact_and_top_share(synth_file, capsys):
    assert main(["impact", str(synth_file)]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["paper_id", "cp", "jif", "top_cited"]
    assert len(rows) > 0
    assert main(["impact", str(synth_file), "--top-share"]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["field_abbr", "share", "numerator", "denominator"]


def test_buckets_subcommand(synth_file, capsys):
    assert main(["buckets", str(synth_file), "--metric", "rdi", "--buckets", "4"]) == 0
    meta, header, rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == 4
    assert meta["metric"] == "rdi"


def test_reciprocity_and_matrix(synth_file, capsys):
    assert main(["reciprocity", str(synth_file)]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["group", "pearson_r", "points"]
    assert rows[0][0] == "all"
    assert main(["reciprocity", str(synth_file), "--matrix"]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header[0] == "field" and len(rows) == 24


def test_acp_subcommand(synth_file, capsys):
    assert main([
        "acp", str(synth_file), "--focal", "AI", "--target", "Algo",
        "--window", "1975:1985",
    ]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["focal", "target", "bucket", "size_pct", "acp"]
    assert [row[2] for row in rows] == ["bucket-1", "bucket-2"]


def test_config_echo_keeps_zero_valued_flags(synth_file, capsys):
    assert main([
        "acp", str(synth_file), "--focal", "AI", "--target", "Algo",
        "--window", "1975:1985", "--threshold", "0",
    ]) == 0
    meta, _header, _rows = _read_csv(capsys.readouterr().out)
    assert "threshold=0.0" in meta["config"].split()


def test_trajectory_series_and_phases(synth_file, capsys):
    assert main(["trajectory", str(synth_file), "--field", "AI"]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["field", "year", "tau", "zeta"]
    assert main([
        "trajectory", str(synth_file), "--field", "AI", "--phases", "--min-years", "5",
    ]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["field", "phase", "start", "end", "segment_mean"]


def test_evidence_subcommand(synth_file, capsys):
    assert main(["evidence", str(synth_file), "--years", "1970:1980"]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert header[0] == "year"
    assert len(rows) == 11


def test_cotag_subcommand(synth_file, capsys):
    assert main([
        "cotag", str(synth_file), "--field-a", "AI", "--field-b", "Algo",
        "--window", "1970:1979", "--window", "1980:1989",
    ]) == 0
    _meta, header, rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == 2


def test_unknown_field_label_error(synth_file, capsys):
    assert main(["trajectory", str(synth_file), "--field", "XYZ"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert "XYZ" in record["error"]["message"]


def test_reports_byte_identical_across_runs(synth_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["rank", str(synth_file), "--metric", "rdi", "--window", "1970:1989"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_numeric_values_round_trip_full_precision(synth_file, tmp_path):
    out = tmp_path / "rank.csv"
    assert main([
        "rank", str(synth_file), "--metric", "rdi",
        "--window", "1970:1989", "--output", str(out),
    ]) == 0
    from citefields import (
        TimeWindow, build_graph, parse_corpus, rank_fields,
    )

    with open(synth_file, encoding="utf-8") as fh:
        corpus, _report = parse_corpus(fh)
    graph = build_graph(corpus)
    report = rank_fields(graph, corpus, "rdi", [TimeWindow(1970, 1989)])
    expected = {row[2]: row[4] for row in report.rows}
    _meta, header, rows = _read_csv(out.read_text(encoding="utf-8"))
    value_idx = header.index("value")
    abbr_idx = header.index("field_abbr")
    for row in rows:
        want = expected[row[abbr_idx]]
        if row[value_idx] == "":
            assert want is None
        else:
            assert float(row[value_idx]) == want  # exact, not approx


def test_json_format_round_trips(synth_file, capsys):
    assert main(["stats", str(synth_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == "corpus-stats"
    assert payload["columns"] == ["field_abbr", "papers", "share"]
    assert payload["metadata"]["tool"] == "citefields"


def test_generate_deterministic_and_spec_file(tmp_path):
    spec = tmp_path / "gen.txt"
    spec.write_text("seed = 3\nfield_count = 5\nyears_span = 6\n", encoding="utf-8")
    out1 = tmp_path / "c1.txt"
    out2 = tmp_path / "c2.txt"
    assert main(["generate", "--spec", str(spec), "--output", str(out1)]) == 0
    assert main(["generate", "--spec", str(spec), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["validate", str(out1), "--strict"]) == 0


def test_generate_missing_spec_file_is_a_file_error(tmp_path, capsys):
    missing = tmp_path / "no-such-spec.txt"
    assert main(["generate", "--spec", str(missing)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("line", [
    "seed = abc", "lifecycle = 1:2", "papers_per_year = 1:2:3",
    "propensity = mixed:abc", "propensity = bogus",
])
def test_generate_bad_spec_value_names_its_line(line, tmp_path, capsys):
    spec = tmp_path / "gen.txt"
    spec.write_text(f"# generator settings\n{line}\n", encoding="utf-8")
    assert main(["generate", "--spec", str(spec)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "AnalysisError"
    key, _, value = line.partition(" = ")
    assert error["message"] == f"spec line 2: bad {key} value {value!r}"


def test_taxonomy_sidecar_flag(tmp_path, capsys):
    taxonomy = tmp_path / "fields.tsv"
    taxonomy.write_text("Alpha Studies\tALS\nBeta Studies\tBES\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("#*A\n#t2000\n#fAlpha Studies\n#index1\n", encoding="utf-8")
    assert main(["stats", str(corpus), "--taxonomy", str(taxonomy)]) == 0
    _meta, _header, rows = _read_csv(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["ALS", "BES"]


def test_taxonomy_label_with_comma_is_an_error_record(tmp_path, capsys):
    taxonomy = tmp_path / "fields.tsv"
    taxonomy.write_text("Security, Privacy\tSEC\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("#*A\n#t2000\n#fSEC\n#index1\n", encoding="utf-8")
    assert main(["stats", str(corpus), "--taxonomy", str(taxonomy)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "type": "ValueError",
        "message": "field 0 ('Security, Privacy'): label 'Security, Privacy' contains ','",
    }}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "citefields.cli", "--version"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "citefields" in proc.stdout


# Runs one subcommand in a fresh interpreter, then prints whether numpy was loaded.
_NUMPY_PROBE = (
    "import sys\n"
    "from citefields.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)

# Keyed by test id. Only ``generate`` builds arrays, so no analysis loads numpy.
_NUMPY_USE = {
    "validate": (["validate"], False),
    "stats": (["stats"], False),
    "rank": (["rank", "--metric", "kdi", "--window", "1970:1974"], False),
    "impact": (["impact"], False),
    "buckets": (["buckets", "--metric", "rdi"], False),
    "acp": (["acp", "--focal", "AI", "--target", "Algo", "--window", "1970:1974"], False),
    "trajectory": (["trajectory", "--field", "AI", "--phases", "--min-years", "2"], False),
    "evidence": (["evidence"], False),
    "cotag": (["cotag", "--field-a", "AI", "--field-b", "Algo", "--window", "1970:1974"], False),
    "reciprocity": (["reciprocity"], False),
    "reciprocity-matrix": (["reciprocity", "--matrix", "--multiplicity", "fractional"], False),
}


@pytest.mark.parametrize("argv, loads_numpy", _NUMPY_USE.values(), ids=_NUMPY_USE)
def test_only_array_subcommands_import_numpy(argv, loads_numpy, tiny_corpus, tmp_path):
    command, *flags = argv
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, command, str(tiny_corpus), *flags,
         "-o", str(tmp_path / "report.csv")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads_numpy)


def test_package_imports_without_numpy_and_serves_generator_names():
    probe = (
        "import sys\n"
        "import citefields\n"
        "assert 'numpy' not in sys.modules\n"
        "corpus, _ = citefields.parse_corpus('#t2000\\n#fAI\\n#index1\\n#%2\\n\\n#t2000\\n#fAlgo\\n#index2')\n"
        "graph = citefields.build_graph(corpus)\n"
        "assert citefields.field_flow(graph, corpus)[0][1] == 1.0\n"
        "assert citefields.citation_fraction_matrix(graph, corpus)[0][1] == 1.0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert citefields.synth.generate is citefields.generate\n"
        "names = {}\n"
        "exec('from citefields import *', names)\n"
        "missing = [n for n in citefields.__all__ if n not in names]\n"
        "assert not missing, missing\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_load_freezes_what_the_parse_built(tiny_corpus, tmp_path):
    # A frozen object is never scanned by the collector again, so the first
    # collection after the parse does not walk every parsed record.
    probe = (
        "import gc, sys\n"
        "from citefields.cli import main\n"
        "assert gc.get_freeze_count() == 0\n"
        "code = main(['cotag', *sys.argv[1:]])\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tiny_corpus), "--field-a", "AI", "--field-b", "Algo",
         "--window", "1970:1975", "-o", str(tmp_path / "cotag.csv")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    frozen, enabled = proc.stdout.split()
    with open(tiny_corpus, "rb") as fh:
        records = len(parse_corpus(fh)[0])
    assert records == 36
    assert int(frozen) >= records and enabled == "True"


_KEYWORDS = ("data mining", "graphs", "routing", "vision", "x")
_MAX_ID = 10**6


@st.composite
def _files_of_random_corpora(draw):
    """A random valid corpus, and its records in the order a file lists them."""
    ids = draw(st.lists(st.integers(0, _MAX_ID), min_size=1, max_size=30, unique=True))
    records = [
        rec(
            pid,
            year=draw(st.integers(*YEAR_RANGE)),
            fields=draw(st.sets(st.integers(0, 23), min_size=1, max_size=4)),
            refs=draw(st.lists(st.integers(0, _MAX_ID).filter(lambda r, pid=pid: r != pid),
                               max_size=8, unique=True)),
            keywords=draw(st.sets(st.sampled_from(_KEYWORDS), max_size=4)),
        )
        for pid in ids
    ]
    return corpus_of(*records), draw(st.permutations(records))


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stream")


@given(_files_of_random_corpora())
@settings(max_examples=60, deadline=None)
def test_streamed_stats_equals_the_corpus_oracle(stream_dir, drawn):
    # stats folds the records as the file lists them; the oracle reads the
    # built corpus in id order.
    corpus, order = drawn
    path = stream_dir / "corpus.txt"
    path.write_text("\n".join(serialize_record(r, corpus.taxonomy) for r in order),
                    encoding="utf-8")
    want = corpus_stats_direct(corpus)
    want.metadata.update(command="stats", config=f"input={path}")
    for fmt, text in (("csv", want.to_csv_text()), ("json", want.to_json_text())):
        out = stream_dir / f"stats.{fmt}"
        assert main(["stats", str(path), "--format", fmt, "-o", str(out)]) == 0
        assert out.read_bytes() == text.encode("utf-8")


def test_validate_and_stats_build_no_corpus(synth_file, tmp_path, monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise RuntimeError("a Corpus was built")

    monkeypatch.setattr(corpusio, "Corpus", refuse)
    for command in ("validate", "stats"):
        assert main([command, str(synth_file), "-o", str(tmp_path / command)]) == 0
        assert capsys.readouterr().err == ""
    # A subcommand that analyzes a corpus reaches the patched name.
    assert main(["cotag", str(synth_file), "--field-a", "AI", "--field-b", "Algo",
                 "--window", "1970:1980"]) == cli.EXIT_INTERNAL
    assert "a Corpus was built" in capsys.readouterr().err


def test_stats_and_the_analyses_refuse_an_empty_corpus_alike(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("#*No index\n#t2000\n#fAI\n", encoding="utf-8")
    for command in ("stats", "evidence"):
        assert main([command, str(path)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": {
            "type": "AnalysisError", "message": "corpus has no parsed records, nothing to analyze",
        }}


@pytest.mark.parametrize("command", ["stats", "validate"])
def test_strict_error_mid_stream_writes_no_report(command, tmp_path, capsys):
    # Records 1-3 take lines 1-15; record 4's bad #index is on line 19.
    good = "".join(f"#*P{i}\n#t2000\n#fAI\n#index{i}\n\n" for i in (1, 2, 3))
    bad = "#*Bad\n#t2000\n#fAI\n#indexabc\n\n"
    path = tmp_path / "corpus.txt"
    path.write_text(good + bad + good.replace("#index", "#index1"), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main([command, "--strict", str(path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("line 19, record 4: [error] malformed-index")
    assert not out.exists()


@pytest.fixture(scope="module")
def file_20k(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "corpus.txt"
    spec = GeneratorSpec(seed=4, field_count=8, years_span=20, papers_per_year=(1000, 1000))
    path.write_text(generate(spec), encoding="utf-8")
    return path


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_and_stats_keep_no_record(file_20k, tmp_path):
    def parse():
        with open(file_20k, "rb") as fh:
            corpus, _report = parse_corpus(fh)
        assert len(corpus) == 20_000

    parse_peak = _peak_bytes(parse)
    for command in ("validate", "stats"):
        out = tmp_path / command
        peak = _peak_bytes(lambda: main([command, str(file_20k), "-o", str(out)]))
        assert peak < parse_peak / 4, (command, peak, parse_peak)
