"""MOSAIC core: the category taxonomy, the per-trace categorization
algorithm (merging → segmentation → Mean Shift / chunk / spike analysis),
and the corpus pipeline."""

from .categories import (
    METADATA,
    PERIODICITY,
    TEMPORALITY_READ,
    TEMPORALITY_WRITE,
    Axis,
    Category,
    axis_of,
    parse_categories,
)
from .governor import (
    DegradationLevel,
    Governor,
    ResourceBudget,
    subsample_ops,
)
from .thresholds import DEFAULT_CONFIG, MosaicConfig
from .temporality import TemporalityDetection, classify_temporality
from .periodicity import (
    PeriodicGroup,
    PeriodicityDetection,
    detect_periodicity,
    period_magnitude,
)
from .metadata import MetadataDetection, classify_metadata
from .preprocess import (
    SelectedRef,
    SelectionPlan,
    preprocess_corpus,
    scan_corpus,
    selected_traces,
)
from .result import CategorizationResult, load_results_jsonl, save_results_jsonl
from .categorizer import categorize_trace
from .pipeline import (
    PipelineContext,
    PipelineResult,
    run_pipeline,
    run_pipeline_store,
    run_pipeline_stream,
)
from .stream import AppEntry, ApplicationCatalog

__all__ = [
    "METADATA",
    "PERIODICITY",
    "TEMPORALITY_READ",
    "TEMPORALITY_WRITE",
    "Axis",
    "Category",
    "axis_of",
    "parse_categories",
    "DEFAULT_CONFIG",
    "MosaicConfig",
    "DegradationLevel",
    "Governor",
    "ResourceBudget",
    "subsample_ops",
    "TemporalityDetection",
    "classify_temporality",
    "PeriodicGroup",
    "PeriodicityDetection",
    "detect_periodicity",
    "period_magnitude",
    "MetadataDetection",
    "classify_metadata",
    "SelectedRef",
    "SelectionPlan",
    "preprocess_corpus",
    "scan_corpus",
    "selected_traces",
    "CategorizationResult",
    "load_results_jsonl",
    "save_results_jsonl",
    "categorize_trace",
    "PipelineContext",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_store",
    "run_pipeline_stream",
    "AppEntry",
    "ApplicationCatalog",
]
