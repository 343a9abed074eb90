"""The package's plain value types: constructors, equality, repr, defaults."""

import pytest

from citefields import (
    CitationGraph, Diagnostic, FieldTrajectory, MetricReport, ParseReport, Phase,
    PhaseDetection, TimeWindow,
)
from citefields.impact import ImpactScores

# Keyed by test id: the type, its fields in constructor order, one field
# changed, and the repr of an instance built from the fields.
_TYPES = {
    "Diagnostic": (
        Diagnostic,
        {"line": 3, "record": 1, "severity": "error", "code": "malformed-year", "message": "m"},
        {"message": "n"},
        "Diagnostic(line=3, record=1, severity='error', code='malformed-year', message='m')",
    ),
    "ParseReport": (
        ParseReport,
        {"blocks": 2, "parsed": 1, "skipped": 1, "diagnostics": []},
        {"skipped": 0},
        "ParseReport(blocks=2, parsed=1, skipped=1, diagnostics=[])",
    ),
    "CitationGraph": (
        CitationGraph,
        {"out_edges": {1: (), 2: (1,)}, "in_edges": {1: (2,)}, "unresolved": {1: 0, 2: 1},
         "multiplicity": "full"},
        {"multiplicity": "fractional"},
        "CitationGraph(out_edges={1: (), 2: (1,)}, in_edges={1: (2,)}, "
        "unresolved={1: 0, 2: 1}, multiplicity='full')",
    ),
    "ImpactScores": (
        ImpactScores,
        {"ids": [7, 9], "cp": [1, 4], "jif": [0.25, None], "cutoff": 4,
         "window": TimeWindow(1970, 1979)},
        {"window": None},
        "ImpactScores(ids=[7, 9], cp=[1, 4], jif=[0.25, None], cutoff=4, "
        "window=TimeWindow(start=1970, end=1979))",
    ),
    "MetricReport": (
        MetricReport,
        {"name": "demo", "columns": ("a",), "rows": [(1,)], "metadata": {"k": "v"}},
        {"rows": [(2,)]},
        "MetricReport(name='demo', columns=('a',), rows=[(1,)], metadata={'k': 'v'})",
    ),
    "Phase": (
        Phase,
        {"label": "growing", "start": 1970, "end": 1980, "segment_mean": 0.5},
        {"end": 1981},
        "Phase(label='growing', start=1970, end=1980, segment_mean=0.5)",
    ),
    "PhaseDetection": (
        PhaseDetection,
        {"phases": [Phase("matured", 1970, 1971, 0.25)], "tau_change_year": None,
         "zeta_change_year": 1975, "diagnostics": ["d"]},
        {"tau_change_year": 1972},
        "PhaseDetection(phases=[Phase(label='matured', start=1970, end=1971, "
        "segment_mean=0.25)], tau_change_year=None, zeta_change_year=1975, diagnostics=['d'])",
    ),
    "FieldTrajectory": (
        FieldTrajectory,
        {"field": 2, "years": (1970, 1971), "tau": (0.5, None), "zeta": (None, 1.0)},
        {"tau": (0.5, 0.5)},
        "FieldTrajectory(field=2, years=(1970, 1971), tau=(0.5, None), zeta=(None, 1.0))",
    ),
    "TimeWindow": (
        TimeWindow,
        {"start": 1970, "end": 1979},
        {"end": 1980},
        "TimeWindow(start=1970, end=1979)",
    ),
}


@pytest.mark.parametrize("cls, fields, change, text", _TYPES.values(), ids=_TYPES)
def test_value_type_builds_compares_and_prints_by_field(cls, fields, change, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    assert by_keyword == by_position and not by_keyword != by_position
    changed = cls(**{**fields, **change})
    assert by_keyword != changed and not by_keyword == changed
    assert repr(by_keyword) == repr(by_position) == text


@pytest.mark.parametrize("build, name", [
    (lambda: ParseReport(), "diagnostics"),
    (lambda: MetricReport("demo", ("a",)), "rows"),
    (lambda: MetricReport("demo", ("a",)), "metadata"),
    (lambda: PhaseDetection([], None, None), "diagnostics"),
], ids=["ParseReport.diagnostics", "MetricReport.rows", "MetricReport.metadata",
        "PhaseDetection.diagnostics"])
def test_mutable_default_is_fresh_per_instance(build, name):
    first, second = build(), build()
    assert getattr(first, name) == getattr(second, name)
    assert len(getattr(first, name)) == 0
    assert getattr(first, name) is not getattr(second, name)


def test_time_window_is_hashable_and_immutable():
    window = TimeWindow(1970, 1979)
    assert hash(window) == hash(TimeWindow(start=1970, end=1979))
    assert len({window, TimeWindow(1970, 1979), TimeWindow(1970, 1980)}) == 2
    for name in ("start", "end", "extra"):
        with pytest.raises(AttributeError):
            setattr(window, name, 1975)
    with pytest.raises(AttributeError):
        del window.start
    assert window == TimeWindow(1970, 1979)
    with pytest.raises(ValueError, match="window start 1980 > end 1979"):
        TimeWindow(1980, 1979)


@pytest.mark.parametrize("cls", [ParseReport, CitationGraph, ImpactScores, MetricReport,
                                 PhaseDetection, FieldTrajectory])
def test_mutable_value_types_are_unhashable(cls):
    fields = _TYPES[cls.__name__][1]
    with pytest.raises(TypeError):
        hash(cls(**fields))
