"""Incremental, application-by-application categorization.

Beyond post-mortem corpus analysis, the paper notes MOSAIC "can also be
used for application-by-application categorization to provide
information to a job scheduler" (§IV-E).  This module provides that
online mode: categorizations arrive one at a time (as jobs finish and
the pipeline driver categorizes their Darshan logs), and the catalog
maintains, per application, the categorization of its heaviest run seen
so far — the same keep-heaviest semantics as the batch pipeline,
incrementally.

A scheduler queries :meth:`ApplicationCatalog.lookup` at submission time
and receives the latest known categories (or nothing for first-time
applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .governor import DegradationLevel
from .result import CategorizationResult

__all__ = ["AppEntry", "ApplicationCatalog"]


@dataclass(slots=True)
class AppEntry:
    """Catalog state for one (user, executable) application."""

    result: CategorizationResult
    #: io_weight of the trace behind `result` (keep-heaviest criterion).
    weight: float
    #: Valid runs observed so far.
    n_runs: int = 1
    #: Runs whose own categorization agreed with the catalog entry's
    #: categories when folded (behaviour-stability estimate, cf. the
    #: paper's 97%-of-LAMMPS observation).
    n_agreeing: int = 1

    @property
    def stability(self) -> float:
        """Fraction of runs matching the catalog categorization."""
        return self.n_agreeing / self.n_runs if self.n_runs else 0.0


@dataclass(slots=True)
class ApplicationCatalog:
    """Online per-application categorization store.

    Folds results the pipeline driver has already validated and
    categorized; the catalog itself never decodes or categorizes a
    trace.

    Not synchronized: callers sharing one catalog across threads hold
    their own lock, as :class:`~repro.service.server.MosaicServer` does.
    """

    _entries: dict[tuple[int, str], AppEntry] = field(default_factory=dict)
    n_ingested: int = 0
    #: Folded runs whose categorization came back degraded (any
    #: non-FULL rung of the ladder; see :mod:`repro.core.governor`).
    n_degraded: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def fold(self, result: CategorizationResult, weight: float) -> AppEntry:
        """Count one valid run of weight ``weight`` and fold its result.

        The heaviest run seen so far stays the application's reference
        (the batch pipeline's keep-heaviest rule); every run counts
        towards agreement with the reference's categories.
        """
        self.n_ingested += 1
        if result.degradation is not DegradationLevel.FULL:
            self.n_degraded += 1
        key = result.app_key
        entry = self._entries.get(key)
        if entry is None:
            entry = AppEntry(result=result, weight=weight)
            self._entries[key] = entry
            return entry
        entry.n_runs += 1
        if result.categories == entry.result.categories:
            entry.n_agreeing += 1
        if weight > entry.weight:
            # heavier run: it becomes the application's reference
            entry.result = result
            entry.weight = weight
        return entry

    def lookup(self, uid: int, exe: str) -> AppEntry | None:
        """Scheduler-side query: known categorization of an application."""
        return self._entries.get((uid, exe))

    def entries(self) -> list[AppEntry]:
        """All catalog entries (stable order by application key)."""
        return [self._entries[k] for k in sorted(self._entries)]

    def results(self) -> list[CategorizationResult]:
        """Current reference results, one per application — directly
        consumable by :mod:`repro.analysis`."""
        return [e.result for e in self.entries()]

    def run_weights(self) -> list[int]:
        """Valid-run counts aligned with :meth:`results`."""
        return [e.n_runs for e in self.entries()]

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (the ``catalog`` block of ``/metrics``)."""
        return {
            "n_apps": len(self),
            "n_ingested": self.n_ingested,
            "n_degraded": self.n_degraded,
        }
