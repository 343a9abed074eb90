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
    CORPUS_GLOBAL, KDI, RDI, WINDOW_LOCAL,
    build_keyword_sets, paper_diversity, rank_fields,
)
from .errors import AnalysisError, CitefieldsError, ParseError
from .graph import CitationGraph, FRACTIONAL, FULL_COUNT, build_graph, field_flow
from .impact import bucket_impact, compute_impact_scores, top_cited_counts
from .reciprocity import (
    acp_bucket_test, citation_fraction_matrix,
    matrix_report, pearson_report, reciprocity_pearson,
)
from .records import Corpus, PaperRecord, TimeWindow, author_key, corpus_stats
from .report import MetricReport
from .taxonomy import DEFAULT_FIELDS, FieldTaxonomy
from .trajectory import (
    FieldTrajectory, Phase, PhaseDetection,
    cotag_report, detect_phases, evidence_series,
    field_trajectory, phases_report, trajectory_report,
)

# The generator is the one module that uses numpy. It and its names are
# looked up on first use, so ``import citefields``, every analysis and the
# CLI's subcommands other than ``generate`` run without numpy.
_SYNTH_NAMES = (
    "GeneratorSpec", "PlantedLifecycle",
    "generate", "generate_corpus", "load_generator_spec",
    "propensity_identity", "propensity_mixed", "propensity_uniform",
)

__all__ = [
    "AnalysisError", "CORPUS_GLOBAL", "CitationGraph", "CitefieldsError",
    "Corpus", "DEFAULT_FIELDS", "Diagnostic", "FRACTIONAL", "FULL_COUNT",
    "FieldTaxonomy", "FieldTrajectory", "KDI", "LENIENT", "MetricReport",
    "PaperRecord", "ParseError", "ParseReport", "Phase", "PhaseDetection",
    "RDI", "STRICT", "TimeWindow", "WINDOW_LOCAL",
    "acp_bucket_test", "author_key", "bucket_impact", "build_graph",
    "build_keyword_sets", "citation_fraction_matrix", "compute_impact_scores",
    "corpus_stats", "cotag_report", "detect_phases", "evidence_series",
    "field_flow", "field_trajectory", "matrix_report", "paper_diversity",
    "parse_corpus", "pearson_report", "phases_report", "rank_fields",
    "reciprocity_pearson", "serialize_corpus", "serialize_record",
    "top_cited_counts", "trajectory_report",
    *_SYNTH_NAMES,
]


def __getattr__(name: str):
    if name == "synth" or name in _SYNTH_NAMES:
        from importlib import import_module

        synth = import_module(f"{__name__}.synth")
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
