"""Incremental, application-by-application categorization.

Beyond post-mortem corpus analysis, the paper notes MOSAIC "can also be
used for application-by-application categorization to provide
information to a job scheduler" (§IV-E).  This module provides that
online mode: traces arrive one at a time (as jobs finish and their
Darshan logs land), and the catalog maintains, per application, the
categorization of its heaviest run seen so far — the same
keep-heaviest semantics as the batch pipeline, incrementally.

A scheduler queries :meth:`ApplicationCatalog.lookup` at submission time
and receives the latest known categories (or nothing for first-time
applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..darshan.trace import Trace
from ..darshan.validate import validate_trace
from .categorizer import categorize_trace
from .governor import DegradationLevel
from .result import CategorizationResult
from .thresholds import DEFAULT_CONFIG, MosaicConfig

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
    #: categories at ingest time (behaviour-stability estimate, cf. the
    #: paper's 97%-of-LAMMPS observation).
    n_agreeing: int = 1

    @property
    def stability(self) -> float:
        """Fraction of runs matching the catalog categorization."""
        return self.n_agreeing / self.n_runs if self.n_runs else 0.0


@dataclass(slots=True)
class ApplicationCatalog:
    """Online per-application categorization store.

    Ingest is fault-isolated the same way the batch pipeline is (see
    docs/ROBUSTNESS.md): a trace whose categorization raises is counted
    and dropped rather than killing the stream, and an application whose
    traces *keep* failing is quarantined — its runs are rejected at the
    door so one poison producer cannot monopolize the catalog's time.

    Not synchronized: callers sharing one catalog across threads hold
    their own lock, as :class:`~repro.service.server.MosaicServer` does.
    """

    config: MosaicConfig = DEFAULT_CONFIG
    #: Re-categorize a run only when it is at least this much heavier
    #: than the catalog entry (avoids churning on equal-weight runs).
    min_weight_gain: float = 1.0
    #: Categorization failures tolerated per application before its
    #: runs are quarantined (mirrors ``RetryPolicy.max_item_crashes``).
    max_app_failures: int = 2
    _entries: dict[tuple[int, str], AppEntry] = field(default_factory=dict)
    _failures: dict[tuple[int, str], int] = field(default_factory=dict)
    _quarantined: set[tuple[int, str]] = field(default_factory=set)
    n_ingested: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    #: Ingested runs whose categorization came back degraded (any
    #: non-FULL rung of the ladder; see :mod:`repro.core.governor`).
    n_degraded: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_quarantined(self) -> int:
        return len(self._quarantined)

    def quarantined_apps(self) -> list[tuple[int, str]]:
        """Application keys whose ingest keeps failing (sorted)."""
        return sorted(self._quarantined)

    # ------------------------------------------------------------------
    def _record_failure(self, key: tuple[int, str]) -> None:
        self.n_failed += 1
        self._failures[key] = self._failures.get(key, 0) + 1
        if self._failures[key] >= self.max_app_failures:
            self._quarantined.add(key)

    def ingest(self, trace: Trace) -> AppEntry | None:
        """Feed one finished job's trace.

        Corrupted traces are rejected, failing categorizations are
        dropped, and quarantined applications are skipped — all counted,
        never raised: the stream must keep flowing.  Returns the
        application's current entry, or ``None`` if the trace produced
        none.
        """
        self.n_ingested += 1
        if not validate_trace(trace).valid:
            self.n_rejected += 1
            return None

        key = trace.meta.app_key
        if key in self._quarantined:
            self.n_rejected += 1
            return None
        weight = trace.io_weight()
        try:
            result = categorize_trace(trace, self.config)
        except Exception:
            self._record_failure(key)
            entry = self._entries.get(key)
            if entry is not None:
                # the catalog still holds a good reference answer for
                # this application; the failed run just doesn't refresh it
                entry.n_runs += 1
            return entry
        return self._fold(key, weight, result)

    def fold(self, result: CategorizationResult, weight: float) -> AppEntry:
        """Fold one already-computed categorization of weight ``weight``.

        The server path: pipeline jobs produce results without retaining
        their traces, so the catalog takes the result directly — the
        same keep-heaviest and agreement bookkeeping as :meth:`ingest`,
        minus the (already-done) validation and categorization.
        """
        self.n_ingested += 1
        return self._fold(result.app_key, weight, result)

    def _fold(
        self,
        key: tuple[int, str],
        weight: float,
        result: CategorizationResult,
    ) -> AppEntry:
        """Count one valid run of ``key`` and fold its categorization
        (shared by :meth:`ingest` and :meth:`fold`)."""
        if result.degradation is not DegradationLevel.FULL:
            self.n_degraded += 1
        entry = self._entries.get(key)
        if entry is None:
            entry = AppEntry(result=result, weight=weight)
            self._entries[key] = entry
            return entry
        entry.n_runs += 1
        if result.categories == entry.result.categories:
            entry.n_agreeing += 1
        if weight >= entry.weight * self.min_weight_gain and weight > entry.weight:
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
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            "n_degraded": self.n_degraded,
            "n_quarantined": self.n_quarantined,
        }
