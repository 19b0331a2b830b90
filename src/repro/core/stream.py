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
applications).  The catalog folds full results and result-cache hits
alike: a hit is a :class:`ResultLine`, read from its saved line without
rehydration, and :func:`result_weight` weighs both kinds the same way.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .categories import parse_categories
from .governor import DegradationLevel
from .result import CategorizationResult

__all__ = ["AppEntry", "ApplicationCatalog", "ResultLine", "result_weight"]


class ResultLine:
    """A result known by its verified ``results.jsonl`` line: what a
    cache hit is on the serve path.

    Holds the line plus exactly what a catalog fold and the run's
    counters read, taken from one ``json.loads``; :meth:`result`
    rehydrates the full :class:`CategorizationResult` on demand.
    """

    __slots__ = ("_line", "uid", "exe", "categories", "degradation", "weight")

    def __init__(self, line: str) -> None:
        d = json.loads(line)
        meta = d.get("metadata", {})
        self._line = line
        self.uid = int(d["uid"])
        self.exe = str(d["exe"])
        self.categories = _categories(tuple(d.get("categories", ())))
        self.degradation = DegradationLevel(d.get("degradation", "full"))
        self.weight = _weight(
            int(meta.get("total_requests", 0)), d.get("chunk_volumes", {}).values()
        )

    @property
    def app_key(self) -> tuple[int, str]:
        return (self.uid, self.exe)

    def json_line(self) -> str:
        return self._line

    def to_dict(self) -> dict[str, Any]:
        return dict(json.loads(self._line))

    def result(self) -> CategorizationResult:
        return CategorizationResult.from_json_line(self._line)


#: Each distinct category list of the hit lines, parsed once.
_categories = functools.lru_cache(maxsize=256)(parse_categories)


@dataclass(slots=True)
class AppEntry:
    """Catalog state for one (user, executable) application."""

    result: CategorizationResult | ResultLine
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

    def fold(
        self, result: CategorizationResult | ResultLine, weight: float
    ) -> AppEntry:
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
        consumable by :mod:`repro.analysis` (a folded
        :class:`ResultLine` is rehydrated here)."""
        return [
            e.result.result() if isinstance(e.result, ResultLine) else e.result
            for e in self.entries()
        ]

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


def _weight(
    metadata_total: int, chunk_volumes: Iterable[list[float] | None]
) -> float:
    total = float(metadata_total)
    for vols in chunk_volumes:
        if vols:
            total += float(sum(map(float, vols)))
    return total


def result_weight(result: CategorizationResult | ResultLine) -> float:
    """Catalog keep-heaviest weight of one result of either kind.

    Approximates :meth:`~repro.darshan.trace.Trace.io_weight`
    (``total_bytes + total_metadata_ops``) from what the result retains:
    significant directions' chunk volumes plus metadata requests.  A
    :class:`ResultLine` took the same sum over its line when it was
    built, the floats added in the same order.
    """
    if isinstance(result, ResultLine):
        return result.weight
    return _weight(result.metadata_total, result.chunk_volumes.values())
