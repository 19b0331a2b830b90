"""Columnar corpus store: compile once, mmap everywhere.

The streaming pipeline re-decodes every trace on every run and ships
pickled ``Trace`` objects to pool workers.  This package replaces that
hot path with a compiled artifact (``.mosc``):

* :func:`compile_corpus` — one decode pass over any ``TraceSource``
  writes a compact store: a NumPy structured **trace index**, the flat
  per-direction **ops table**, file records (the metadata rate is
  binned from them in closed form), and a deduplicated string heap (:mod:`repro.columnar.format`).
* :class:`CorpusStore` — memory-mapped, zero-copy reader with a
  hostile-input posture inherited from the trace readers
  (:mod:`repro.columnar.store`).
* :func:`scan_store` — pass ① replayed from the index alone, funnel-
  identical to the streaming scan (:mod:`repro.columnar.scan`).
* :func:`categorize_slice` — workers receive ``(store_path, rows)``
  descriptors, reattach via :func:`attach`, and hand whole slices to
  the one categorizer, :func:`repro.core.categorizer.categorize_batch`
  (:mod:`repro.columnar.batch`).
* :func:`verify_store` / :func:`salvage_store` — ``mosaic verify
  [--repair]``: per-section and per-trace CRC audit with row-level
  damage localization, and recovery of every intact trace from a
  partially corrupted store (:mod:`repro.columnar.verify`).

See docs/COLUMNAR.md for the file layout and the equivalence argument.
"""

from .batch import DEFAULT_SLICE_OPS, categorize_slice, plan_slices
from .compile import CompileReport, StoreOverflowError, compile_corpus
from .format import MAGIC, VERSION
from .scan import scan_store
from .store import CorpusStore, StoreSlice, attach, detach_all
from .verify import (
    SalvageReport,
    VerifyFinding,
    VerifyReport,
    salvage_store,
    verify_store,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "CompileReport",
    "CorpusStore",
    "SalvageReport",
    "StoreOverflowError",
    "StoreSlice",
    "VerifyFinding",
    "VerifyReport",
    "DEFAULT_SLICE_OPS",
    "attach",
    "categorize_slice",
    "compile_corpus",
    "detach_all",
    "plan_slices",
    "salvage_store",
    "scan_store",
    "verify_store",
]
