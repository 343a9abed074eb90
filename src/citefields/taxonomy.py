"""Research-field taxonomy: the closed label set every analysis is keyed on.

Field labels are resolved case-insensitively through either their full name
or their abbreviation; each resolves to a stable integer index that the rest
of the package uses as the field key.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

# Built-in 24-field computer-science taxonomy, in canonical index order.
DEFAULT_FIELDS: tuple[tuple[str, str], ...] = (
    ("Artificial Intelligence", "AI"),
    ("Algorithm", "Algo"),
    ("Networking", "NETW"),
    ("Databases", "DB"),
    ("Distributed Systems", "DIST"),
    ("Computer Architecture", "ARC"),
    ("Software Engineering", "SE"),
    ("Machine Learning", "ML"),
    ("Scientific Computing", "SC"),
    ("Bioinformatics", "BIO"),
    ("Human Computer Interaction", "HCI"),
    ("Multimedia", "MUL"),
    ("Graphics", "GRP"),
    ("Computer Vision", "CV"),
    ("Data Mining", "DM"),
    ("Programming Language", "PL"),
    ("Security and Privacy", "SEC"),
    ("Information Retrieval", "IR"),
    ("Natural Language Processing", "NLP"),
    ("World Wide Web", "WWW"),
    ("Education", "EDU"),
    ("Operating Systems", "OS"),
    ("Real Time Systems", "RT"),
    ("Simulation", "SIM"),
)


class FieldTaxonomy:
    """Ordered (full name, abbreviation) pairs with a bijective label lookup."""

    __slots__ = ("entries", "_lookup")

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self.entries: tuple[tuple[str, str], ...] = tuple(
            (name.strip(), abbr.strip()) for name, abbr in entries
        )
        if not self.entries:
            raise ValueError("taxonomy must contain at least one field")
        lookup: dict[str, int] = {}
        for idx, (name, abbr) in enumerate(self.entries):
            if not name or not abbr:
                raise ValueError(f"field {idx}: empty name or abbreviation")
            # A #f line splits its labels at commas, so such a label could
            # never be read back.
            for label in (name, abbr):
                if "," in label:
                    raise ValueError(f"field {idx} ({name!r}): label {label!r} contains ','")
            for key in (name.casefold(), abbr.casefold()):
                if key in lookup:
                    raise ValueError(f"duplicate field label {key!r}")
                lookup[key] = idx
        self._lookup = lookup

    @classmethod
    def default(cls) -> "FieldTaxonomy":
        return cls(DEFAULT_FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "FieldTaxonomy":
        """Parse the sidecar format: one ``Full Name<TAB>ABBR`` per line.

        Blank lines are skipped; columns past the second (optional
        annotations such as venue type) are tolerated and ignored.
        """
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"taxonomy line {lineno}: expected 'Name<TAB>ABBR'")
            entries.append((parts[0], parts[1]))
        return cls(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "FieldTaxonomy":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def index_of(self, label: str) -> int:
        """Resolve a full name or abbreviation to its field index (KeyError if unknown)."""
        return self._lookup[label.strip().casefold()]

    def get(self, label: str) -> int | None:
        return self._lookup.get(label.strip().casefold())

    def name(self, index: int) -> str:
        return self.entries[index][0]

    def abbr(self, index: int) -> str:
        return self.entries[index][1]

    @property
    def indices(self) -> range:
        return range(len(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldTaxonomy) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"FieldTaxonomy({len(self.entries)} fields)"
