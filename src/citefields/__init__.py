"""Citation-network analysis over research fields.

Parses a tagged bibliographic record format into an immutable corpus,
resolves a citation graph, and computes field-level interdisciplinarity,
impact, reciprocity, and life-trajectory indicators as machine-readable
report tables.
"""

__version__ = "0.1.0"

from .corpusio import (
    Diagnostic, LENIENT, ParseReport, STRICT,
    parse_corpus, serialize_corpus, serialize_record,
)
from .diversity import (
    CORPUS_GLOBAL, FieldKeywordSets, KDI, RDI, WINDOW_LOCAL,
    build_keyword_sets, kdi_field, kdi_paper, rank_fields, rdi_field, rdi_paper,
)
from .errors import AnalysisError, CitefieldsError, ParseError
from .graph import (
    CitationGraph, FRACTIONAL, FULL_COUNT,
    build_graph, citations_received, field_flow, per_paper_field_refs,
)
from .impact import (
    ImpactScores, PaperImpact,
    bucket_impact, compute_impact_scores, cp, jif, top_cited_share,
)
from .reciprocity import (
    FieldGroup,
    acp, acp_bucket_test, citation_fraction_matrix, default_field_groups,
    matrix_report, pearson, pearson_report, reciprocity_pearson,
)
from .records import Corpus, PaperRecord, TimeWindow, corpus_stats
from .report import MetricReport
from .synth import (
    GeneratorSpec, PlantedLifecycle,
    generate, generate_corpus, load_generator_spec,
    propensity_identity, propensity_mixed, propensity_uniform,
)
from .taxonomy import DEFAULT_FIELDS, FieldTaxonomy
from .trajectory import (
    CotagPoint, FieldTrajectory, Phase, PhaseDetection,
    cotag_report, cotag_series, detect_phases, evidence_series,
    field_trajectory, phases_report, tau_series, top_partner_fields,
    trajectory_report, zeta_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
