import pytest

from citefields import DEFAULT_FIELDS, FieldTaxonomy


def test_default_has_24_fields():
    tax = FieldTaxonomy.default()
    assert len(tax) == 24
    assert tax.name(0) == "Artificial Intelligence"
    assert tax.abbr(0) == "AI"


def test_lookup_both_forms_case_insensitive():
    tax = FieldTaxonomy.default()
    idx = tax.index_of("Data Mining")
    assert tax.index_of("DM") == idx
    assert tax.index_of("data mining") == idx
    assert tax.index_of("dm") == idx
    assert tax.get("No Such Field") is None


def test_lookup_is_bijective():
    tax = FieldTaxonomy.default()
    seen = set()
    for name, abbr in tax:
        i = tax.index_of(name)
        assert tax.index_of(abbr) == i
        assert i not in seen
        seen.add(i)
    assert seen == set(range(24))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FieldTaxonomy([("Databases", "DB"), ("Design Basics", "db")])
    with pytest.raises(ValueError):
        FieldTaxonomy([("Databases", "DB"), ("databases", "DBX")])


def test_name_and_abbreviation_may_fold_equal():
    # Both labels of one field resolve to it; only a label of another field
    # is a duplicate.
    tax = FieldTaxonomy([("Robotics", "ROBOTICS"), ("Databases", "DB")])
    assert tax.index_of("robotics") == 0 and tax.index_of("db") == 1
    assert FieldTaxonomy.from_text("Robotics\tRobotics\n").index_of("Robotics") == 0
    with pytest.raises(ValueError, match="duplicate field label 'robotics'"):
        FieldTaxonomy([("Robotics", "Robotics"), ("Rovers", "robotics")])


def test_from_text_tab_separated_with_extra_columns():
    text = "Quantum Computing\tQC\nRobotics\tROB\tvenue:conference\n\n"
    tax = FieldTaxonomy.from_text(text)
    assert len(tax) == 2
    assert tax.index_of("ROB") == 1


def test_from_text_rejects_missing_tab():
    with pytest.raises(ValueError):
        FieldTaxonomy.from_text("Quantum Computing QC\n")


def test_all_default_entries_match_source_table():
    assert DEFAULT_FIELDS[1] == ("Algorithm", "Algo")
    abbrs = {abbr for _, abbr in DEFAULT_FIELDS}
    assert {"AI", "WWW", "DM", "NLP", "IR", "ML", "DB", "SEC", "DIST", "NETW"} <= abbrs


@pytest.mark.parametrize("entry", [("Security, Privacy", "SEC"), ("Security", "SEC,P")])
def test_label_with_comma_rejected(entry):
    # A #f line splits its labels at commas, so such a label could never match.
    with pytest.raises(ValueError, match="field 1 .* contains ','"):
        FieldTaxonomy([("Databases", "DB"), entry])


@pytest.mark.parametrize("entry", [("Alpha\nBeta", "AB"), ("Alpha", "A\nB")],
                         ids=["name", "abbreviation"])
def test_label_with_line_break_rejected(entry):
    # serialize_record would write "#fAlpha\nBeta", which re-parses as the
    # unknown label "Alpha" and a stray line.
    with pytest.raises(ValueError, match=r"field 0 .* contains '\\n'"):
        FieldTaxonomy([entry, ("Gamma", "G")])
