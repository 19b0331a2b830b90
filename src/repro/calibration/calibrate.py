"""The paper's two-stage calibration workflow.

Stage 1 — *set thresholds on one month*: take the traces whose jobs
started inside a calendar-month window, sweep the threshold grid on
them, keep the best point.

Stage 2 — *validate on the year by sampling*: categorize the full corpus
under the chosen thresholds and estimate accuracy from a 512-trace
random sample (§IV-E's protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.accuracy import AccuracyReport, estimate_accuracy
from ..core.categorizer import categorize_trace
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from ..darshan.trace import Trace
from ..synth.groundtruth import GroundTruth
from .sweep import SweepPoint, sweep_thresholds

__all__ = ["CalibrationOutcome", "month_subset", "calibrate_and_validate"]

#: Seconds in the synthetic corpus year window.
YEAR_SECONDS = 365.0 * 86400.0
MONTH_SECONDS = YEAR_SECONDS / 12.0


def month_subset(
    traces: Sequence[Trace], month: int = 0, epoch: float | None = None
) -> list[Trace]:
    """Traces whose job started within calendar month ``month`` (0-11)
    of the corpus year.  ``epoch`` defaults to the earliest start time."""
    if not 0 <= month < 12:
        raise ValueError("month must be in [0, 12)")
    if not traces:
        return []
    t0 = epoch if epoch is not None else min(t.meta.start_time for t in traces)
    lo = t0 + month * MONTH_SECONDS
    hi = lo + MONTH_SECONDS
    return [t for t in traces if lo <= t.meta.start_time < hi]


@dataclass(slots=True, frozen=True)
class CalibrationOutcome:
    """Result of calibrate-on-month + validate-on-year."""

    best: SweepPoint
    sweep: tuple[SweepPoint, ...]
    validation: AccuracyReport
    n_month_traces: int


def calibrate_and_validate(
    traces: Sequence[Trace],
    truth: Mapping[int, GroundTruth],
    grid: Mapping[str, Sequence[Any]],
    *,
    month: int = 0,
    sample_size: int = 512,
    base: MosaicConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> CalibrationOutcome:
    """Run the full §III-B3a methodology.

    ``traces`` should be the *selected* (deduplicated, valid) corpus;
    ``truth`` the ground-truth mapping.  The grid is swept on the
    chosen month's traces; the winning configuration is then validated
    on the whole corpus via the sampling protocol.
    """
    subset = month_subset(traces, month)
    labeled = [t for t in subset if t.meta.job_id in truth]
    if not labeled:
        raise ValueError(f"month {month} holds no labeled traces")

    points = sweep_thresholds(labeled, truth, grid, base)
    best = points[0]

    config = best.config(base)
    results = [categorize_trace(t, config) for t in traces]
    validation = estimate_accuracy(
        results, truth, sample_size=sample_size, seed=seed
    )
    return CalibrationOutcome(
        best=best,
        sweep=tuple(points),
        validation=validation,
        n_month_traces=len(labeled),
    )
