"""The package's plain value types: constructors, equality, repr, defaults."""

from itertools import combinations

import pytest

from citefields import (
    Diagnostic, FieldTrajectory, MetricReport, ParseReport, Phase, PhaseDetection, TimeWindow,
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


@pytest.mark.parametrize("cls, fields, change, text", _TYPES.values(), ids=_TYPES)
def test_value_type_refuses_a_call_that_does_not_fit_its_fields(cls, fields, change, text):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, values[0])
    with pytest.raises(TypeError, match=rf"{cls.__name__}.*'extra'"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match=rf"{cls.__name__}.*'{first}'"):
        cls(*values, **{first: values[0]})
    for name in fields.keys() - getattr(cls, "_defaults", {}).keys():
        with pytest.raises(TypeError, match=rf"{cls.__name__}.*'{name}'"):
            cls(**{key: value for key, value in fields.items() if key != name})


@pytest.mark.parametrize("build, name", [
    (lambda **named: ParseReport(**named), "diagnostics"),
    (lambda **named: MetricReport("demo", ("a",), **named), "rows"),
    (lambda **named: MetricReport("demo", ("a",), **named), "metadata"),
    (lambda **named: PhaseDetection([], None, None, **named), "diagnostics"),
], ids=["ParseReport.diagnostics", "MetricReport.rows", "MetricReport.metadata",
        "PhaseDetection.diagnostics"])
def test_mutable_default_is_fresh_per_instance(build, name):
    # Left out twice, then given as None twice.
    defaults = [getattr(made, name) for made in (build(), build(), build(**{name: None}),
                                                 build(**{name: None}))]
    for first, second in combinations(defaults, 2):
        assert first == second
        assert len(first) == 0
        assert first is not second


def test_parse_report_counts_default_to_zero():
    assert ParseReport(blocks=None).blocks == 0
    assert ParseReport(None, None, None, None) == ParseReport() == ParseReport(0, 0, 0, [])


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


@pytest.mark.parametrize("cls", [ParseReport, ImpactScores, MetricReport, PhaseDetection,
                                 FieldTrajectory])
def test_mutable_value_types_are_unhashable(cls):
    fields = _TYPES[cls.__name__][1]
    with pytest.raises(TypeError):
        hash(cls(**fields))
