"""CLI end-to-end: subcommands, determinism, report parseability, errors."""

import csv
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from citefields import (
    GeneratorSpec, PlantedLifecycle, cli, corpusio, generate, parse_corpus, serialize_record,
)
from citefields.cli import main
from citefields.records import YEAR_RANGE
from conftest import GOLDEN_RECORD, child_env, corpus_of, rec
from oracles import corpus_stats_direct
from test_golden import INPUT_NAME, INVOCATIONS, corpus_spec, golden_path, render
from test_kernels import _corpus_files


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
    def broken(_args, _kept, _parse_report):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._ANALYSES, "stats", (cli._stats_fold, broken))
    assert main(["stats", str(golden_file)]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": {"type": "RuntimeError", "message": "boom"}}


# Runs ``main`` in a fresh interpreter with ``stats`` raising an internal error.
_BROKEN_STATS = (
    "import sys\n"
    "from citefields import cli\n"
    "def broken(_args, _kept, _parse_report):\n"
    "    raise RuntimeError('boom')\n"
    "cli._ANALYSES['stats'] = (cli._stats_fold, broken)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("level, traceback", [
    ("DEBUG", True), ("debug", True), ("WARNING", False), (None, False),
])
def test_internal_error_traceback_only_at_debug(level, traceback, golden_file):
    env = child_env()
    env.pop("CITEFIELDS_LOG", None)
    if level is not None:
        env["CITEFIELDS_LOG"] = level
    proc = subprocess.run(
        [sys.executable, "-c", _BROKEN_STATS, "stats", str(golden_file)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == cli.EXIT_INTERNAL
    assert proc.stdout == ""
    *logged, record = proc.stderr.splitlines()
    assert json.loads(record) == {"error": {"type": "RuntimeError", "message": "boom"}}
    if traceback:
        assert logged[0] == "DEBUG:citefields.cli:internal error"
        assert logged[1] == "Traceback (most recent call last):"
        assert logged[-1] == "RuntimeError: boom"
    else:
        assert logged == []


@pytest.mark.parametrize("level", ["verbose", "", "10", "WARN", "debug "])
def test_unknown_log_level_is_a_usage_error(level, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CITEFIELDS_LOG", level)
    # The input does not exist: the level is refused before any input is read.
    assert main(["stats", str(tmp_path / "missing.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "type": "ValueError",
        "message": "CITEFIELDS_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, "
                   f"got {level!r}",
    }}


def _help_entry(subcommand: str, flag: str, capsys) -> str:
    """The entry of ``flag`` in ``subcommand --help``, from the flag to the
    next option, with its whitespace runs made single spaces."""
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.split("\n")
    start = lines.index(next(line for line in lines if line.startswith("  " + flag)))
    end = next(i for i in range(start + 1, len(lines)) if not lines[i].startswith("   "))
    return " ".join(" ".join(lines[start:end]).split())


@pytest.mark.parametrize("subcommand, flag, tail", [
    ("trajectory", "--min-years MIN_YEARS", "(default: 10; read only with --phases)"),
    ("rank", "--keyword-scope {window-local,corpus-global}",
     "(default: window-local; read only with --metric kdi)"),
    ("buckets", "--keyword-scope {window-local,corpus-global}",
     "(default: window-local; read only with --metric kdi)"),
    ("rank", "--multiplicity {full,fractional}",
     "(default: full; read only with --metric rdi)"),
    ("buckets", "--multiplicity {full,fractional}",
     "(default: full; read only with --metric rdi)"),
    ("reciprocity", "--multiplicity {full,fractional}", "(default: full)"),
    ("acp", "--multiplicity {full,fractional}", "(default: full)"),
])
def test_help_gives_each_conditional_default_and_the_mode_that_reads_it(
        subcommand, flag, tail, capsys):
    entry = _help_entry(subcommand, flag, capsys)
    assert entry.endswith(" " + tail), entry
    # The default is the one the flag takes when it is not given.
    _mode, _read_under, default, _message = cli._READ_WHEN[flag.split()[0][2:].replace("-", "_")]
    assert f"(default: {default}" in tail


@pytest.mark.parametrize("level", ["Debug", "info", "warning", "ERROR", "critical"])
def test_standard_log_levels_in_any_case_are_accepted(level, golden_file, capsys, monkeypatch):
    monkeypatch.setenv("CITEFIELDS_LOG", level)
    assert main(["stats", str(golden_file)]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("argv, reason", [
    (["rank", "--metric", "rdi", "--window", "1980:1970"], "window start 1980 > end 1970"),
    (["trajectory", "--field", "AI", "--years", "1980:1970"], "window start 1980 > end 1970"),
    (["rank", "--metric", "rdi", "--window", "x"], "bad window 'x', expected START:END"),
    (["evidence", "--years", "x"], "bad window 'x', expected START:END"),
    (["trajectory", "--field", "AI", "--years", "1970:2500"],
     "window 1970:2500 falls outside the years 1900:2100"),
    (["rank", "--metric", "rdi", "--window", "1899:1970"],
     "window 1899:1970 falls outside the years 1900:2100"),
])
def test_bad_span_usage_error_gives_its_reason(argv, reason, synth_file, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc_info:
        main([command, str(synth_file), *flags])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[-2]}: {reason}" in err
    assert "_window" not in err


def test_hit_rate_without_top_share_is_usage_error(synth_file, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["impact", str(synth_file), "--hit-rate"])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--hit-rate requires --top-share" in captured.err


_HORIZON = "--horizon applies to counts within a horizon, not to --lifetime"
_KEYWORD_SCOPE = "--keyword-scope requires --metric kdi"
_MULTIPLICITY = "--multiplicity requires --metric rdi"


@pytest.mark.parametrize("argv, message", [
    (["reciprocity", "--matrix", "--exclude-diagonal"],
     "--exclude-diagonal applies to the correlations, not to --matrix"),
    (["rank", "--metric", "rdi", "--window", "1970:1975", "--normalized-kdi"],
     "--normalized-kdi requires --metric kdi"),
    (["trajectory", "--field", "AI", "--min-years", "5"], "--min-years requires --phases"),
    (["impact", "--lifetime", "--horizon", "7"], _HORIZON),
    (["impact", "--lifetime", "--horizon", "5"], _HORIZON),
    (["rank", "--metric", "rdi", "--window", "1970:1975", "--keyword-scope", "corpus-global"],
     _KEYWORD_SCOPE),
    (["buckets", "--metric", "rdi", "--keyword-scope", "corpus-global"], _KEYWORD_SCOPE),
    (["rank", "--metric", "kdi", "--window", "1970:1975", "--multiplicity", "fractional"],
     _MULTIPLICITY),
    (["rank", "--metric", "kdi", "--window", "1970:1975", "--multiplicity", "full"],
     _MULTIPLICITY),
    (["buckets", "--metric", "kdi", "--multiplicity", "fractional"], _MULTIPLICITY),
], ids=["matrix-exclude-diagonal", "rdi-normalized-kdi", "series-min-years",
        "lifetime-horizon-7", "lifetime-horizon-default", "rank-rdi-keyword-scope",
        "buckets-rdi-keyword-scope", "rank-kdi-fractional", "rank-kdi-multiplicity-default",
        "buckets-kdi-fractional"])
def test_flag_the_mode_does_not_read_is_usage_error(synth_file, tmp_path, capsys, argv,
                                                    message):
    # Each flag used to be echoed in the config line and change no data row;
    # given at its default it is refused alike.
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc_info:
        main([argv[0], str(synth_file), *argv[1:], "-o", str(out)])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["impact"], ["--horizon", "5"]),
    (["rank", "--metric", "rdi", "--window", "1970:1975"], ["--multiplicity", "full"]),
    (["rank", "--metric", "kdi", "--window", "1970:1975"], ["--keyword-scope", "window-local"]),
    (["trajectory", "--field", "AI", "--phases"], ["--min-years", "10"]),
    (["acp", "--focal", "AI", "--target", "Algo", "--window", "1975:1985"],
     ["--multiplicity", "full"]),
], ids=["impact-horizon", "rank-rdi-multiplicity", "rank-kdi-keyword-scope",
        "phases-min-years", "acp-multiplicity"])
def test_read_flag_at_its_default_writes_the_bytes_of_leaving_it_out(synth_file, tmp_path,
                                                                     argv, flag):
    reports = []
    for extra in ([], flag):
        out = tmp_path / f"report{len(reports)}.csv"
        assert main([argv[0], str(synth_file), *argv[1:], *extra, "-o", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert f"{flag[0][2:].replace('-', '_')}={flag[1]}".encode() in reports[0]


_SPAN = "1975:1990"
# Every subcommand and mode, with its required flags.
_MODES = {
    "validate": ["validate"],
    "stats": ["stats"],
    "rank-rdi": ["rank", "--metric", "rdi", "--window", _SPAN],
    "rank-kdi": ["rank", "--metric", "kdi", "--window", _SPAN],
    "impact": ["impact"],
    "impact-lifetime": ["impact", "--lifetime"],
    "impact-top-share": ["impact", "--top-share"],
    "buckets-rdi": ["buckets", "--metric", "rdi"],
    "buckets-kdi": ["buckets", "--metric", "kdi"],
    "reciprocity": ["reciprocity"],
    "reciprocity-matrix": ["reciprocity", "--matrix"],
    "acp": ["acp", "--focal", "AI", "--target", "Algo", "--window", _SPAN],
    "trajectory": ["trajectory", "--field", "NETW"],
    "trajectory-phases": ["trajectory", "--field", "NETW", "--phases"],
    "evidence": ["evidence"],
    "cotag": ["cotag", "--field-a", "AI", "--field-b", "Algo", "--window", _SPAN],
}
# The flags drawn for each subcommand: every conditional flag, whether or not
# the mode reads it, and the other mode flags, each with the values it may
# take (none for a switch).
_DRAWN = {
    "rank": [("--normalized-kdi",), ("--keyword-scope", "window-local", "corpus-global"),
             ("--multiplicity", "full", "fractional")],
    "impact": [("--lifetime",), ("--top-share",), ("--hit-rate",), ("--horizon", "1", "5"),
               ("--window", "1980:1983")],
    "buckets": [("--keyword-scope", "window-local", "corpus-global"),
                ("--multiplicity", "full", "fractional"), ("--horizon", "1", "5"),
                ("--buckets", "1", "3")],
    "reciprocity": [("--exclude-diagonal",), ("--multiplicity", "full", "fractional"),
                    ("--window", "1980:1983")],
    "acp": [("--multiplicity", "full", "fractional"), ("--threshold", "0", "0.5", "1")],
    "trajectory": [("--min-years", "2", "10"), ("--years", _SPAN)],
    "evidence": [("--years", _SPAN)],
}


def test_every_subcommand_has_a_mode():
    assert {argv[0] for argv in _MODES.values()} == set(cli._ANALYSES)


@pytest.fixture(scope="module")
def outcome_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("outcomes")


@pytest.mark.parametrize("mode", sorted(_MODES))
@given(data=_corpus_files(), picks=st.data())
@settings(max_examples=8, deadline=None)
def test_every_mode_ends_in_a_report_an_error_record_or_a_usage_error(outcome_dir, mode, data,
                                                                      picks):
    command, *flags = _MODES[mode]
    for flag, *values in [*_DRAWN.get(command, ()), ("--strict",), ("--format", "csv", "json")]:
        if picks.draw(st.sampled_from((False, False, True)), label=flag):
            flags += [flag, *([picks.draw(st.sampled_from(values))] if values else [])]
    corpus = outcome_dir / "corpus.txt"
    corpus.write_bytes(data)
    out = outcome_dir / "report.out"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([command, str(corpus), *flags, "-o", str(out)])
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert stdout.getvalue() == ""
    if code == 0:
        assert out.exists() and err == ""
    elif code == 1:
        assert set(json.loads(err)) == {"error"}
    else:
        assert code == cli.EXIT_USAGE, (code, err)
        assert "usage:" in err and not out.exists()


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


@pytest.mark.parametrize("name, echoed", [
    ("x strict=True.txt", '"{dir}/x strict=True.txt"'),
    ('a"b\\c.txt', '"{dir}/a\\"b\\\\c.txt"'),
    ("tab\there.txt", '"{dir}/tab\there.txt"'),
    ("plain.txt", "{dir}/plain.txt"),
])
def test_config_echo_quotes_a_value_that_would_read_as_more_pairs(synth_file, tmp_path,
                                                                   name, echoed):
    # The temporary directory's own name needs no quoting.
    path = tmp_path / name
    path.write_bytes(synth_file.read_bytes())
    out = tmp_path / "stats.json"
    assert main(["stats", str(path), "--strict", "--format", "json", "-o", str(out)]) == 0
    config = json.loads(out.read_text(encoding="utf-8"))["metadata"]["config"]
    assert config == "input=" + echoed.format(dir=tmp_path) + " strict=True"


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


@pytest.mark.parametrize("spec_text, spec", [
    ("", GeneratorSpec()),
    ("seed = 4\nfield_count = 3\nyears_span = 12\npapers_per_year = 0:9\n"
     "lifecycle = 1:1973:1977\n",
     GeneratorSpec(seed=4, field_count=3, years_span=12, papers_per_year=(0, 9),
                   lifecycle=PlantedLifecycle(1, 1973, 1977))),
], ids=["default", "lifecycle"])
def test_generate_writes_the_text_of_generate(spec_text, spec, tmp_path, capsys):
    spec_file = tmp_path / "gen.txt"
    spec_file.write_text(spec_text, encoding="utf-8")
    out = tmp_path / "corpus.txt"
    assert main(["generate", "--spec", str(spec_file), "-o", str(out)]) == 0
    expected = generate(spec).encode("utf-8")
    assert out.read_bytes() == expected
    assert main(["generate", "--spec", str(spec_file)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_generate_invalid_spec_writes_no_output(tmp_path, capsys):
    spec = tmp_path / "gen.txt"
    spec.write_text("years_span = 0\n", encoding="utf-8")
    out = tmp_path / "corpus.txt"
    assert main(["generate", "--spec", str(spec), "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "AnalysisError", "message": "years_span must be positive",
    }}
    assert not out.exists()


def test_generate_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus.txt"
    with pytest.raises(SystemExit) as exc_info:
        main(["generate", "--seed", "-5", "-o", str(out)])
    assert exc_info.value.code == 2
    assert "must be at least 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_generate_negative_seed_in_spec_file_rejected(tmp_path, capsys):
    spec = tmp_path / "gen.txt"
    spec.write_text("seed = -5\n", encoding="utf-8")
    out = tmp_path / "corpus.txt"
    assert main(["generate", "--spec", str(spec), "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "AnalysisError", "message": "seed must be non-negative, got -5",
    }}
    assert not out.exists()


def test_generate_missing_spec_file_is_a_file_error(tmp_path, capsys):
    missing = tmp_path / "no-such-spec.txt"
    assert main(["generate", "--spec", str(missing)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("lines, message", [
    *(pytest.param(line, "spec line 2: bad {} value {!r}".format(*line.split(" = ")), id=line)
      for line in ("seed = abc", "lifecycle = 1:2", "papers_per_year = 1:2:3",
                   "propensity = mixed:abc", "propensity = bogus")),
    # A repeated key no longer lets the later line win silently.
    pytest.param("seed = 1\nvenue_count = 2\nseed = 2",
                 "spec line 4: repeated key 'seed' (first on line 2)", id="seed twice"),
])
def test_generate_bad_spec_value_names_its_line(lines, message, tmp_path, capsys):
    spec = tmp_path / "gen.txt"
    spec.write_text(f"# generator settings\n{lines}\n", encoding="utf-8")
    assert main(["generate", "--spec", str(spec)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "AnalysisError"
    assert error["message"] == message


def test_taxonomy_sidecar_flag(tmp_path, capsys):
    taxonomy = tmp_path / "fields.tsv"
    taxonomy.write_text("Alpha Studies\tALS\nBeta Studies\tBES\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("#*A\n#t2000\n#fAlpha Studies\n#index1\n", encoding="utf-8")
    assert main(["stats", str(corpus), "--taxonomy", str(taxonomy)]) == 0
    _meta, _header, rows = _read_csv(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["ALS", "BES"]


def test_taxonomy_field_named_as_its_abbreviation(tmp_path, capsys):
    taxonomy = tmp_path / "fields.tsv"
    taxonomy.write_text("Robotics\tRobotics\nBeta Studies\tBES\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("#*A\n#t2000\n#fROBOTICS\n#index1\n", encoding="utf-8")
    assert main(["stats", str(corpus), "--taxonomy", str(taxonomy)]) == 0
    _meta, _header, rows = _read_csv(capsys.readouterr().out)
    assert [row[:2] for row in rows[:2]] == [["Robotics", "1"], ["BES", "0"]]


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


# Modules that an analysis needs only for some of its work, or not at all.
_OPTIONAL_MODULES = ("numpy", "dataclasses", "inspect", "ast", "logging", "json")

# Runs one subcommand in a fresh interpreter, then prints which of
# ``_OPTIONAL_MODULES`` were loaded.
_NUMPY_PROBE = (
    "import sys\n"
    "from citefields.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(' '.join(m for m in {_OPTIONAL_MODULES!r} if m in sys.modules))\n"
    "sys.exit(code)\n"
)

# Keyed by test id. No subcommand loads numpy. ``json`` is loaded for a JSON
# report alone, and ``dataclasses`` (with ``inspect`` and ``ast``) for the
# generator's spec alone.
_NUMPY_USE = {
    "validate": (["validate"], ""),
    "validate-json": (["validate", "--format", "json"], "json"),
    "stats": (["stats"], ""),
    "rank": (["rank", "--metric", "kdi", "--window", "1970:1974"], ""),
    "impact": (["impact"], ""),
    "buckets": (["buckets", "--metric", "rdi"], ""),
    "acp": (["acp", "--focal", "AI", "--target", "Algo", "--window", "1970:1974"], ""),
    "trajectory": (["trajectory", "--field", "AI", "--phases", "--min-years", "2"], ""),
    "evidence": (["evidence"], ""),
    "evidence-json": (["evidence", "--format", "json"], "json"),
    "cotag": (["cotag", "--field-a", "AI", "--field-b", "Algo", "--window", "1970:1974"], ""),
    "reciprocity": (["reciprocity"], ""),
    "reciprocity-matrix": (["reciprocity", "--matrix", "--multiplicity", "fractional"], ""),
    "generate": (["generate", "--seed", "1"], "dataclasses inspect ast"),
}


@pytest.mark.parametrize("argv, loaded", _NUMPY_USE.values(), ids=_NUMPY_USE)
def test_only_array_subcommands_import_numpy(argv, loaded, tiny_corpus, tmp_path):
    command, *flags = argv
    corpus = [] if command == "generate" else [str(tiny_corpus)]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, command, *corpus, *flags,
         "-o", str(tmp_path / "report.csv")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == loaded


def test_package_imports_without_numpy_and_serves_generator_names():
    probe = (
        "import sys\n"
        "import citefields\n"
        "assert 'numpy' not in sys.modules\n"
        "corpus, _ = citefields.parse_corpus('#t2000\\n#fAI\\n#index1\\n#%2\\n\\n#t2000\\n#fAlgo\\n#index2')\n"
        "graph = citefields.build_graph(corpus)\n"
        "assert citefields.field_flow(graph, corpus)[0][1] == 1.0\n"
        "assert citefields.citation_fraction_matrix(graph, corpus)[0][1] == 1.0\n"
        f"loaded = [m for m in {_OPTIONAL_MODULES!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
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
    # The library's parse builds a Corpus, and reaches the patched name.
    with pytest.raises(RuntimeError, match="a Corpus was built"):
        parse_corpus(synth_file.read_bytes())


def test_validate_builds_no_record(synth_file, tmp_path, monkeypatch, capsys):
    # A repeated id and a self reference give the report rows.
    path = tmp_path / "corpus.txt"
    path.write_text(synth_file.read_text(encoding="utf-8")
                    + "\n#*Again\n#t2000\n#fAI\n#index1\n\n#*Self\n#t2000\n#fAI\n"
                      "#index999999\n#%999999\n", encoding="utf-8")
    usual = {}
    for fmt in ("csv", "json"):
        assert main(["validate", str(path), "--format", fmt, "-o", str(tmp_path / fmt)]) == 0
        usual[fmt] = (tmp_path / fmt).read_bytes()
    assert b"duplicate-id" in usual["csv"] and b"self-reference" in usual["csv"]

    def refuse(*_args, **_kwargs):
        raise RuntimeError("a PaperRecord was built")

    monkeypatch.setattr(corpusio, "PaperRecord", refuse)
    for fmt in ("csv", "json"):
        out = tmp_path / f"patched.{fmt}"
        assert main(["validate", str(path), "--format", fmt, "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == usual[fmt]
    # The library's parse builds records, and reaches the patched name.
    with pytest.raises(RuntimeError, match="a PaperRecord was built"):
        parse_corpus(path.read_bytes())


def test_analyses_build_no_record_and_no_corpus(synth_file, tmp_path, monkeypatch, capsys):
    """With records and Corpus construction refused, ``stats`` and ``cotag``
    give their usual reports and errors, and every golden invocation its
    golden bytes: each subcommand reads the parser's columns."""
    # A repeated id and a bad year are read by finish(), the other blocks by
    # the run screen.
    path = tmp_path / "corpus.txt"
    path.write_text(synth_file.read_text(encoding="utf-8")
                    + "\n#*Again\n#t2000\n#fAI,Algo\n#index1\n\n#*Late\n#t19x0\n#fAI\n"
                      "#index999999\n", encoding="utf-8")
    cotag = ["--field-a", "AI", "--field-b", "Algo"]
    invocations = [
        ["stats"], ["stats", "--format", "json"],
        ["cotag", *cotag, "--window", "1970:1975", "--window", "1976:1985"],
        ["cotag", *cotag, "--window", "1970:1975", "--format", "json"],
        # Errors: no paper in a window, an unknown label.
        ["cotag", *cotag, "--window", "1900:1901"],
        ["cotag", "--field-a", "AI", "--field-b", "Nope", "--window", "1970:1975"],
    ]

    def run():
        outcome = []
        for argv in invocations:
            code = main([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr()
            outcome.append((code, out.out, out.err))
        return outcome

    usual = run()
    assert [code for code, _out, _err in usual] == [0, 0, 0, 0, 1, 1]

    def refuse(*_args, **_kwargs):
        raise RuntimeError("a PaperRecord or a Corpus was built")

    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / INPUT_NAME).write_text(generate(corpus_spec(3)), encoding="utf-8")
    monkeypatch.setattr(corpusio, "_records", refuse)
    monkeypatch.setattr(corpusio.PaperRecord, "__new__", refuse)
    monkeypatch.setattr(corpusio.Corpus, "__init__", refuse)
    assert run() == usual
    monkeypatch.chdir(golden)
    for label in INVOCATIONS:
        assert render(label) == golden_path(3, label).read_bytes(), label
    # The library's parse builds records, and reaches the patched names.
    with pytest.raises(RuntimeError, match="was built"):
        parse_corpus(path.read_bytes())


@pytest.mark.parametrize("argv, reads_references", [
    (["rank", "--metric", "kdi", "--window", "1970:1975"], False),
    (["rank", "--metric", "rdi", "--window", "1970:1975"], True),
    (["buckets", "--metric", "kdi"], True),
])
def test_an_analysis_reads_references_exactly_when_it_builds_a_graph(
        argv, reads_references, tiny_corpus, tmp_path, monkeypatch):
    named = []  # the columns each table the analysis builds reads of the parse
    reader = cli.PaperTable.reader

    def recording(*extra):
        read = reader(*extra)
        named.append(read.columns)
        return read

    monkeypatch.setattr(cli.PaperTable, "reader", recording)
    assert main([argv[0], str(tiny_corpus), *argv[1:], "-o", str(tmp_path / "out")]) == 0
    assert len(named) == 1
    assert ("references" in named[0]) is reads_references


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
