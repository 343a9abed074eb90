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
    build_keyword_sets, kdi_paper, paper_diversity, rank_fields, rdi_paper,
)
from .errors import AnalysisError, CitefieldsError, ParseError
from .graph import CitationGraph, FRACTIONAL, FULL_COUNT, build_graph, field_flow
from .impact import (
    ImpactScores, PaperImpact,
    bucket_impact, citations_received, compute_impact_scores, top_cited_counts,
)
from .reciprocity import (
    acp, acp_bucket_test, citation_fraction_matrix,
    matrix_report, pearson, pearson_report, reciprocity_pearson,
)
from .records import Corpus, PaperRecord, TimeWindow, author_key, corpus_stats
from .report import MetricReport
from .taxonomy import DEFAULT_FIELDS, FieldTaxonomy
from .trajectory import (
    FieldTrajectory, Phase, PhaseDetection,
    cotag_report, detect_phases, evidence_series,
    field_trajectory, phases_report, tau_series, top_partner_fields,
    trajectory_report, zeta_series,
)

# The generator is the one module that needs numpy at import time. It and its
# names are looked up on first use, so ``import citefields`` and the CLI's
# subcommands other than ``generate`` start without numpy.
_SYNTH_NAMES = (
    "GeneratorSpec", "PlantedLifecycle",
    "generate", "generate_corpus", "load_generator_spec",
    "propensity_identity", "propensity_mixed", "propensity_uniform",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["synth", *_SYNTH_NAMES]
)


def __getattr__(name: str):
    if name == "synth" or name in _SYNTH_NAMES:
        from importlib import import_module

        synth = import_module(f"{__name__}.synth")
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
