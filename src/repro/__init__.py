"""MOSAIC reproduction: detection and categorization of I/O patterns in
HPC applications.

Reproduces Jolivel, Tessier, Monniot & Pallez, "MOSAIC: Detection and
Categorization of I/O Patterns in HPC Applications" (PDSW @ SC 2024).

Quickstart::

    from repro import categorize_trace, generate_fleet, run_pipeline
    from repro.synth import FleetConfig

    fleet = generate_fleet(FleetConfig(n_apps=200))
    result = run_pipeline(fleet.traces)
    for r in result.results[:3]:
        print(r.exe, sorted(c.value for c in r.categories))

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.darshan` — Darshan-equivalent trace substrate
- :mod:`repro.synth` — synthetic Blue Waters corpus with ground truth
- :mod:`repro.merge` / :mod:`repro.segment` — event fusion & segmentation
- :mod:`repro.cluster` — from-scratch Mean Shift
- :mod:`repro.signalproc` — DFT / autocorrelation periodicity baselines
- :mod:`repro.core` — the MOSAIC categorization algorithm & pipeline
- :mod:`repro.parallel` — fault-isolated process-pool engine
- :mod:`repro.analysis` — tables, Jaccard, correlations, accuracy
- :mod:`repro.viz` — ASCII rendering + CSV export
- :mod:`repro.cli` — the ``mosaic`` command
"""

from ._version import __version__
from .core import (
    Category,
    CategorizationResult,
    DEFAULT_CONFIG,
    MosaicConfig,
    PipelineContext,
    PipelineResult,
    categorize_trace,
    run_pipeline,
    run_pipeline_store,
    run_pipeline_stream,
)
from .darshan import (
    DirectorySource,
    FileRecord,
    InMemorySource,
    JobMeta,
    SyntheticSource,
    Trace,
    TraceSource,
)

#: Served on first use (module ``__getattr__``): the synthetic-fleet
#: generator is only needed to make corpora, never to categorize one.
_LAZY_SYNTH = ("FleetConfig", "generate_fleet")


def __getattr__(name: str) -> object:
    if name in _LAZY_SYNTH:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "Category",
    "CategorizationResult",
    "DEFAULT_CONFIG",
    "MosaicConfig",
    "PipelineContext",
    "PipelineResult",
    "categorize_trace",
    "run_pipeline",
    "run_pipeline_store",
    "run_pipeline_stream",
    "FileRecord",
    "JobMeta",
    "Trace",
    "TraceSource",
    "DirectorySource",
    "InMemorySource",
    "SyntheticSource",
    "FleetConfig",
    "generate_fleet",
]
