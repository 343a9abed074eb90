"""Deterministic synthetic-corpus generator with planted ground truth.

Generates corpora in the tagged record format whose structure is known by
construction: reference targets are drawn from prior-year papers according
to a per-field propensity matrix, keywords come from per-field pools with a
configurable shared fraction, and an optional planted lifecycle switches a
focal field from cross-field-heavy referencing to self-heavy referencing at
a given year and ramps up inbound cross-field citations after a later year,
at the fixed shares of the module's lifecycle constants.

Determinism is taken seriously: all sampling goes through ``random.Random``
using only its ``random()`` method, the one stream Python guarantees stable
across versions, so identical spec + seed yields byte-identical output
anywhere. The RNG is pinned in a ``%%`` header comment of the output (the
corpus reader skips such lines). Each draw is made from ``u = random()``:

- an integer in ``[lo, hi]`` is ``lo + int(u * (hi - lo + 1))``, and a range
  of one integer takes no draw;
- a weighted index is ``bisect_right(cumulative, u * cumulative[-1])`` over
  the running sums of the weights;
- a sample of distinct items draws integer indices into the pool until it
  holds enough distinct ones, so it keeps the order of first draw; a pool
  of one item takes no draw.

``tests/oracles.py`` keeps the generator as it was written before its loop
was flattened, and the tests require the same bytes and the same number of
``random()`` calls from both on every spec they try.

Drop/rise years name the last year of the old regime: the change takes
effect the following year, which is also the convention the phase detector
reports change-points in.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Iterator

from .errors import AnalysisError
from .reciprocity import _row_total
from .records import YEAR_RANGE, Corpus
from .taxonomy import DEFAULT_FIELDS, FieldTaxonomy

RNG_PIN = "python-random-mt19937-random()"


def propensity_identity(k: int) -> list[list[float]]:
    return [[1.0 if j == i else 0.0 for j in range(k)] for i in range(k)]


def propensity_uniform(k: int) -> list[list[float]]:
    return [[1.0 / k] * k for _ in range(k)]


def propensity_mixed(k: int, self_weight: float = 0.6) -> list[list[float]]:
    """self_weight on the diagonal, the rest spread evenly off-diagonal."""
    if k == 1:
        return [[1.0]]
    off = (1.0 - self_weight) / (k - 1)
    return [[float(self_weight) if j == i else off for j in range(k)] for i in range(k)]


# Planted lifecycle shape: the focal field's cross-field reference share up to
# tau_drop_year and self share after it; other fields' chance of citing it up to
# zeta_rise_year and after it.
GROWING_CROSS_FRACTION = 0.75
SETTLED_SELF_FRACTION = 0.85
INBOUND_LOW = 0.01
INBOUND_HIGH = 0.6


@dataclass(frozen=True)
class PlantedLifecycle:
    """Ground-truth lifecycle planted into one focal field, at fixed shares.

    ``tau_drop_year``: last year the focal field references mostly other
    fields; from the next year on it references mostly itself.
    ``zeta_rise_year``: last year other fields rarely cite the focal field;
    from the next year on they cite it heavily.
    """

    focal_field: int
    tau_drop_year: int
    zeta_rise_year: int


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 0
    field_count: int = 4
    start_year: int = 1970
    years_span: int = 20
    papers_per_year: tuple[int, int] = (10, 10)
    references: tuple[int, int] = (3, 6)
    propensity: tuple[tuple[float, ...], ...] | None = None  # None = mixed(0.6)
    multi_tag_probability: float = 0.1
    keyword_pool_size: int = 30
    keyword_overlap_fraction: float = 0.2
    keywords_per_paper: tuple[int, int] = (4, 8)
    authors_per_paper: tuple[int, int] = (1, 4)
    author_pool_size: int = 40
    venue_count: int = 4
    lifecycle: PlantedLifecycle | None = None

    def validate(self) -> None:
        if self.seed < 0:
            # Random(seed) seeds by |seed|, so -5 would repeat the records of 5.
            raise AnalysisError(f"seed must be non-negative, got {self.seed}")
        if self.field_count < 1 or self.field_count > len(DEFAULT_FIELDS):
            raise AnalysisError(
                f"field_count must be 1..{len(DEFAULT_FIELDS)}, got {self.field_count}"
            )
        if self.years_span < 1:
            raise AnalysisError("years_span must be positive")
        end = self.start_year + self.years_span - 1
        if not (YEAR_RANGE[0] <= self.start_year and end <= YEAR_RANGE[1]):
            raise AnalysisError(f"years {self.start_year}..{end} fall outside {YEAR_RANGE}")
        for name in ("papers_per_year", "references", "keywords_per_paper", "authors_per_paper"):
            lo, hi = getattr(self, name)
            if lo < 0 or lo > hi:
                raise AnalysisError(f"{name} range ({lo}, {hi}) is invalid")
        if not 0.0 <= self.multi_tag_probability <= 1.0:
            raise AnalysisError("multi_tag_probability must be in [0, 1]")
        if not 0.0 <= self.keyword_overlap_fraction <= 1.0:
            raise AnalysisError("keyword_overlap_fraction must be in [0, 1]")
        if self.keyword_pool_size < self.keywords_per_paper[1]:
            raise AnalysisError("keyword pool smaller than keywords_per_paper maximum")
        if self.author_pool_size < 1 or self.venue_count < 1:
            raise AnalysisError("author_pool_size and venue_count must be positive")
        if self.author_pool_size < self.authors_per_paper[1]:
            raise AnalysisError("author pool smaller than authors_per_paper maximum")
        matrix = self.propensity_matrix()
        if len(matrix) != self.field_count or any(len(row) != len(matrix) for row in matrix):
            raise AnalysisError("propensity matrix shape does not match field_count")
        for row in matrix:
            # np.allclose(atol=1e-9)'s tolerance; a NaN or inf total fails it.
            if any(x < 0 for x in row) or not abs(_row_total(row) - 1.0) <= 1e-9 + 1e-5:
                raise AnalysisError("propensity rows must be non-negative and sum to 1")
        lc = self.lifecycle
        if lc is not None:
            if self.field_count < 2:
                raise AnalysisError("a planted lifecycle needs at least 2 fields")
            if not 0 <= lc.focal_field < self.field_count:
                raise AnalysisError("lifecycle focal_field outside the generated fields")
            if not (self.start_year <= lc.tau_drop_year < lc.zeta_rise_year <= end):
                raise AnalysisError(
                    "lifecycle years must satisfy start <= tau_drop < zeta_rise <= end"
                )

    def propensity_matrix(self) -> list[list[float]]:
        if self.propensity is None:
            return propensity_mixed(self.field_count)
        return [[float(x) for x in row] for row in self.propensity]


def _cumulative(weights) -> list[float]:
    out = []
    total = 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


def _keyword_pools(spec: GeneratorSpec, abbrs: list[str]) -> list[list[str]]:
    shared_n = int(round(spec.keyword_pool_size * spec.keyword_overlap_fraction))
    own_n = spec.keyword_pool_size - shared_n
    shared = [f"kw shared {i}" for i in range(shared_n)]
    return [
        [f"kw {abbr.casefold()} {i}" for i in range(own_n)] + shared
        for abbr in abbrs
    ]


def _sampling_matrix(spec: GeneratorSpec) -> list[list[float]]:
    """Propensity rows to draw from. A planted lifecycle's inbound redirect is
    the only channel into the focal field: every other row's focal entry is
    zeroed and the row renormalized, so the baseline does not wash out the rise."""
    matrix = spec.propensity_matrix()
    lc = spec.lifecycle
    if lc is not None:
        for i, row in enumerate(matrix):
            if i == lc.focal_field:
                continue
            row[lc.focal_field] = 0.0
            total = _row_total(row)
            if total <= 0.0:
                matrix[i] = [1.0 if j == i else 0.0 for j in range(len(row))]
            else:
                matrix[i] = [x / total for x in row]
    return matrix


def _lifecycle_row(k: int, focal: int, self_weight: float) -> list[float]:
    """The focal field's cumulative reference row: ``self_weight`` on itself,
    the rest spread evenly over the other ``k - 1`` fields."""
    row = [(1.0 - self_weight) / (k - 1)] * k
    row[focal] = self_weight
    return _cumulative(row)


def generate(spec: GeneratorSpec) -> str:
    """Produce a corpus in the record format honoring the generator settings.

    First-year papers have no references (there is nothing earlier to
    cite); reference targets never repeat within a paper.
    """
    return "".join(generate_chunks(spec))


def generate_chunks(spec: GeneratorSpec) -> Iterator[str]:
    """``generate(spec)`` in pieces: the ``%%`` header line, then the records
    of each year, so a writer holds one year of text at a time.

    The spec is validated before the first piece is returned.
    """
    spec.validate()
    # Every draw is inlined; the module docstring says how each is made.
    # random() is at most 1 - 2**-53, and (1 - 2**-53) * n < n for every
    # n < 2**53, so lo + int(random() * n) never passes the top of its range.
    random = Random(spec.seed).random
    k = spec.field_count
    names = [DEFAULT_FIELDS[i][0] for i in range(k)]
    lc = spec.lifecycle
    focal = -1 if lc is None else lc.focal_field
    base_rows = [_cumulative(row) for row in _sampling_matrix(spec)]
    if lc is not None:
        growing_row = _lifecycle_row(k, focal, 1.0 - GROWING_CROSS_FRACTION)
        settled_row = _lifecycle_row(k, focal, SETTLED_SELF_FRACTION)
    pools = _keyword_pools(spec, [DEFAULT_FIELDS[i][1] for i in range(k)])
    n_kw_pool = spec.keyword_pool_size  # the size of every field's pool
    authors = [f"Author {i:03d}" for i in range(spec.author_pool_size)]
    n_author_pool = len(authors)
    venue_lines = [f"#cVENUE-{i}\n" for i in range(spec.venue_count)]
    n_venues = len(venue_lines)
    # field_lines[p][e]: the #f line of primary field p tagged e too; [p][p] tags p alone.
    field_lines = [[f"#f{names[min(p, e)]},{names[max(p, e)]}\n" if e != p else f"#f{names[p]}\n"
                    for e in range(k)] for p in range(k)]
    multi_tag = spec.multi_tag_probability
    # Each count's range as its least value and its number of values.
    (papers_lo, papers_n), (refs_lo, refs_n), (kw_lo, kw_n), (authors_lo, authors_n) = [
        (lo, hi - lo + 1) for lo, hi in (spec.papers_per_year, spec.references,
                                         spec.keywords_per_paper, spec.authors_per_paper)]

    yield (
        f"%% synthetic corpus: rng={RNG_PIN} seed={spec.seed} "
        f"fields={k} years={spec.start_year}+{spec.years_span}\n"
    )
    by_field_prior: list[list[int]] = [[] for _ in range(k)]  # ids of papers from closed years
    next_id = 1

    for year in range(spec.start_year, spec.start_year + spec.years_span):
        year_line = f"#t{year}\n"
        prior = range(1, next_id)  # every paper of a closed year
        year_inbound = None  # another field's chance to cite the focal field
        if lc is not None:
            focal_row = growing_row if year <= lc.tau_drop_year else settled_row
            year_inbound = INBOUND_LOW if year <= lc.zeta_rise_year else INBOUND_HIGH
        year_by_field: list[list[int]] = [[] for _ in range(k)]
        papers: list[str] = []
        n_papers = papers_lo + int(random() * papers_n) if papers_n > 1 else papers_lo
        for pid in range(next_id, next_id + n_papers):
            primary = int(random() * k) if k > 1 else 0
            extra = primary
            if k > 1 and random() < multi_tag:
                extra = int(random() * (k - 1)) if k > 2 else 0
                if extra >= primary:
                    extra += 1
                year_by_field[extra].append(pid)
            year_by_field[primary].append(pid)

            n_refs = refs_lo + int(random() * refs_n) if refs_n > 1 else refs_lo
            refs: dict[int, None] = {}  # distinct, in draw order
            if prior:
                if primary == focal:
                    cumrow, inbound = focal_row, None
                else:
                    cumrow, inbound = base_rows[primary], year_inbound
                for _ in range(n_refs):
                    if inbound is not None and random() < inbound:
                        target_field = focal
                    else:
                        target_field = bisect_right(cumrow, random() * cumrow[-1])
                    candidates = by_field_prior[target_field] or prior
                    n_candidates = len(candidates)
                    for _attempt in range(8):
                        rid = candidates[int(random() * n_candidates) if n_candidates > 1 else 0]
                        if rid not in refs:
                            refs[rid] = None
                            break

            n_keywords = kw_lo + int(random() * kw_n) if kw_n > 1 else kw_lo
            keywords: set[int] = set()  # distinct; written sorted
            while len(keywords) < n_keywords:
                keywords.add(int(random() * n_kw_pool) if n_kw_pool > 1 else 0)
            n_authors = authors_lo + int(random() * authors_n) if authors_n > 1 else authors_lo
            paper_authors: dict[int, None] = {}  # distinct, in draw order
            while len(paper_authors) < n_authors:
                paper_authors[int(random() * n_author_pool) if n_author_pool > 1 else 0] = None
            venue_line = venue_lines[int(random() * n_venues) if n_venues > 1 else 0]

            ref_lines = "".join([f"#%{rid}\n" for rid in refs])
            papers.append(
                f"\n#*Synthetic study {pid:06d}\n"
                f"#@{','.join([authors[i] for i in paper_authors])}\n"
                f"{year_line}{venue_line}{field_lines[primary][extra]}"
                f"#k{','.join(sorted([pools[primary][i] for i in keywords]))}\n"
                f"#index{pid}\n{ref_lines}"
            )
        for field, pids in enumerate(year_by_field):
            by_field_prior[field] += pids
        next_id += n_papers
        if papers:
            yield "".join(papers)


def generate_corpus(spec: GeneratorSpec, taxonomy: FieldTaxonomy | None = None) -> Corpus:
    """Generate and strict-parse in one step."""
    from .corpusio import STRICT, parse_corpus

    corpus, _report = parse_corpus(
        generate(spec), taxonomy or FieldTaxonomy.default(), strictness=STRICT
    )
    return corpus


# -- flat key-value spec files --------------------------------------------

def _parse_range(value: str) -> tuple[int, int]:
    if ":" in value:
        lo, hi = value.split(":")
        return int(lo), int(hi)
    v = int(value)
    return v, v


def _propensity_preset(value: str) -> Callable[[int], list[list[float]]]:
    """The matrix builder a ``propensity`` value names; ValueError if none."""
    if value == "identity":
        return propensity_identity
    if value == "uniform":
        return propensity_uniform
    name, _, self_weight = value.partition(":")
    if name != "mixed":
        raise ValueError(f"unknown propensity preset {value!r}")
    return partial(propensity_mixed, self_weight=float(self_weight))


def load_generator_spec(text: str) -> GeneratorSpec:
    """Read a spec from flat ``key = value`` text.

    Ranges accept ``lo:hi`` or a single integer. The propensity matrix is
    selected by preset: ``identity``, ``uniform``, or ``mixed:<self_weight>``
    (full matrices are API-only). A lifecycle is spelled
    ``lifecycle = FIELD_INDEX:TAU_DROP_YEAR:ZETA_RISE_YEAR``. A bad line,
    key or value, or a key given twice, raises ``AnalysisError`` naming the
    line.
    """
    kwargs: dict = {}
    propensity: Callable[[int], list[list[float]]] | None = None
    key_lines: dict[str, int] = {}  # the line each key was read from
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise AnalysisError(f"spec line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in key_lines:
            raise AnalysisError(
                f"spec line {lineno}: repeated key {key!r} (first on line {key_lines[key]})"
            )
        key_lines[key] = lineno
        try:
            if key in ("seed", "field_count", "start_year", "years_span",
                       "keyword_pool_size", "author_pool_size", "venue_count"):
                kwargs[key] = int(value)
            elif key in ("papers_per_year", "references", "keywords_per_paper",
                         "authors_per_paper"):
                kwargs[key] = _parse_range(value)
            elif key in ("multi_tag_probability", "keyword_overlap_fraction"):
                kwargs[key] = float(value)
            elif key == "propensity":
                propensity = _propensity_preset(value)
            elif key == "lifecycle":
                focal, drop, rise = value.split(":")
                kwargs["lifecycle"] = PlantedLifecycle(int(focal), int(drop), int(rise))
            else:
                raise AnalysisError(f"spec line {lineno}: unknown key {key!r}")
        except ValueError:
            raise AnalysisError(f"spec line {lineno}: bad {key} value {value!r}") from None
    if propensity is not None:  # the matrix size may come from a later line
        k = kwargs.get("field_count", GeneratorSpec.field_count)
        kwargs["propensity"] = tuple(tuple(row) for row in propensity(k))
    return GeneratorSpec(**kwargs)
