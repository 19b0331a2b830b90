"""Categorization results and their JSON form (workflow step ④).

"Once MOSAIC has processed a trace, it saves the assigned categories and
the calculated values (period for instance) in a JSON file."  One trace →
one :class:`CategorizationResult`; a corpus is stored as JSON-lines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..darshan.trace import Direction
from ..io import atomic_write
from .categories import Category, parse_categories
from .governor import DegradationLevel
from .metadata import MetadataDetection
from .periodicity import PeriodicGroup, PeriodicityDetection
from .temporality import TemporalityDetection

__all__ = [
    "ENCODING_VERSION",
    "CategorizationResult",
    "save_results_jsonl",
    "load_results_jsonl",
]

#: Version of :meth:`CategorizationResult.json_line`'s bytes, which the
#: result cache serves unparsed: bump it whenever that line changes.
ENCODING_VERSION = 2


@dataclass(slots=True, frozen=True)
class CategorizationResult:
    """Full MOSAIC output for one trace."""

    job_id: int
    uid: int
    exe: str
    nprocs: int
    run_time: float
    categories: frozenset[Category]
    #: direction → temporality chunk byte sums (None if insignificant).
    chunk_volumes: dict[Direction, list[float] | None] = field(default_factory=dict)
    #: direction → weak-evidence flag of the temporality rule.
    weak_temporality: dict[Direction, bool] = field(default_factory=dict)
    #: direction → detected periodic groups.
    periodic_groups: dict[Direction, list[PeriodicGroup]] = field(default_factory=dict)
    #: metadata measurements.
    metadata_total: int = 0
    metadata_peak_rate: float = 0.0
    metadata_mean_rate: float = 0.0
    metadata_n_spikes: int = 0
    #: Fidelity rung this result was produced at (degradation ladder;
    #: see :mod:`repro.core.governor`).  FULL unless a resource budget
    #: forced the governor to shed work.
    degradation: DegradationLevel = DegradationLevel.FULL
    #: Human-readable reasons for every budget escalation, in order.
    budget_violations: tuple[str, ...] = ()
    #: The canonical line, once made (:meth:`json_line`).
    _line: str | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def app_key(self) -> tuple[int, str]:
        return (self.uid, self.exe)

    def has(self, category: Category) -> bool:
        return category in self.categories

    @classmethod
    def build(
        cls,
        *,
        job_id: int,
        uid: int,
        exe: str,
        nprocs: int,
        run_time: float,
        temporality: Iterable[TemporalityDetection],
        periodicity: Iterable[PeriodicityDetection],
        metadata: MetadataDetection,
        config: Any,
        degradation: DegradationLevel = DegradationLevel.FULL,
        budget_violations: Iterable[str] = (),
    ) -> "CategorizationResult":
        """Assemble a result from the three axis detections."""
        categories: set[Category] = set(metadata.categories)
        chunk_volumes: dict[Direction, list[float] | None] = {}
        weak: dict[Direction, bool] = {}
        for det in temporality:
            categories.add(det.category)
            chunk_volumes[det.direction] = (
                det.profile.volumes.tolist() if det.profile is not None else None
            )
            weak[det.direction] = det.weak_evidence
        groups: dict[Direction, list[PeriodicGroup]] = {}
        for det in periodicity:
            categories |= det.categories(config)
            groups[det.direction] = list(det.groups)
        return cls(
            job_id=job_id,
            uid=uid,
            exe=exe,
            nprocs=nprocs,
            run_time=run_time,
            categories=frozenset(categories),
            chunk_volumes=chunk_volumes,
            weak_temporality=weak,
            periodic_groups=groups,
            metadata_total=metadata.total_requests,
            metadata_peak_rate=metadata.peak_rate,
            metadata_mean_rate=metadata.mean_rate,
            metadata_n_spikes=metadata.n_spikes,
            degradation=degradation,
            budget_violations=tuple(budget_violations),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "uid": self.uid,
            "exe": self.exe,
            "nprocs": self.nprocs,
            "run_time": self.run_time,
            "categories": sorted(c.value for c in self.categories),
            "chunk_volumes": {k: v for k, v in self.chunk_volumes.items()},
            "weak_temporality": dict(self.weak_temporality),
            "periodic_groups": {
                direction: [
                    {
                        "period": g.period,
                        "mean_volume": g.mean_volume,
                        "n_occurrences": g.n_occurrences,
                        "busy_fraction": g.busy_fraction,
                    }
                    for g in groups
                ]
                for direction, groups in self.periodic_groups.items()
            },
            "metadata": {
                "total_requests": self.metadata_total,
                "peak_rate": self.metadata_peak_rate,
                "mean_rate": self.metadata_mean_rate,
                "n_spikes": self.metadata_n_spikes,
            },
            "degradation": self.degradation.value,
            "budget_violations": list(self.budget_violations),
        }

    def json_line(self) -> str:
        """This result's ``results.jsonl`` line, ``json.dumps(to_dict())``
        without the newline: made on the first call, then kept."""
        line = self._line
        if line is None:
            line = json.dumps(self.to_dict())
            object.__setattr__(self, "_line", line)
        return line

    @classmethod
    def from_json_line(cls, line: str) -> "CategorizationResult":
        """Rehydrate a :meth:`json_line` line, keeping it as the line."""
        result = cls.from_dict(json.loads(line))
        object.__setattr__(result, "_line", line)
        return result

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CategorizationResult":
        meta = d.get("metadata", {})
        return cls(
            job_id=int(d["job_id"]),
            uid=int(d["uid"]),
            exe=str(d["exe"]),
            nprocs=int(d["nprocs"]),
            run_time=float(d["run_time"]),
            categories=parse_categories(d.get("categories", [])),
            chunk_volumes={
                k: (list(map(float, v)) if v is not None else None)
                for k, v in d.get("chunk_volumes", {}).items()
            },
            weak_temporality={
                k: bool(v) for k, v in d.get("weak_temporality", {}).items()
            },
            periodic_groups={
                direction: [
                    PeriodicGroup(
                        direction=direction,  # type: ignore[arg-type]
                        period=float(g["period"]),
                        mean_volume=float(g["mean_volume"]),
                        n_occurrences=int(g["n_occurrences"]),
                        busy_fraction=float(g["busy_fraction"]),
                    )
                    for g in groups
                ]
                for direction, groups in d.get("periodic_groups", {}).items()
            },
            metadata_total=int(meta.get("total_requests", 0)),
            metadata_peak_rate=float(meta.get("peak_rate", 0.0)),
            metadata_mean_rate=float(meta.get("mean_rate", 0.0)),
            metadata_n_spikes=int(meta.get("n_spikes", 0)),
            degradation=DegradationLevel(d.get("degradation", "full")),
            budget_violations=tuple(
                str(v) for v in d.get("budget_violations", [])
            ),
        )


def save_results_jsonl(
    results: Iterable[CategorizationResult], path: str | os.PathLike[str]
) -> int:
    """Atomically write results as JSON-lines; returns the number
    written.  A crash mid-save leaves the previous file (or nothing),
    never a truncated result set."""
    n = 0
    with atomic_write(path, "w") as fh:
        for r in results:
            fh.write(r.json_line() + "\n")
            n += 1
    return n


def load_results_jsonl(path: str | os.PathLike[str]) -> Iterator[CategorizationResult]:
    """Stream results back from a JSON-lines file."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield CategorizationResult.from_dict(json.loads(line))
