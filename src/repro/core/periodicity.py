"""Periodicity detection (paper §III-B3a, workflow step ③a).

The merged operation stream is segmented (segment = operation start →
next operation start), each segment yields (duration, volume) features,
and a Mean Shift pass groups segments that "share comparable duration and
data size".  Every sufficiently-populated group is one periodic
operation; several groups per trace model real applications that both
checkpoint and read inputs at independent intervals.

Feature space
-------------
Clustering happens in ``(log10 duration, log10 volume)``.  The paper's
comparability thresholds were set empirically; a log-space flat kernel of
bandwidth *b* declares two segments comparable when both their durations
and volumes agree within a factor ``10**b`` (≈1.4× at the default 0.15),
which matches the intuition "same order of magnitude, same operation".

Group-size threshold
--------------------
The paper accepts any group "with a size strictly greater than 1".  With
Blue Waters-grade data (the final segment is closed by the end of the
execution) pairs of unrelated operations occasionally land in one mode;
our calibration — the analogue of the paper's threshold refinement on one
month of traces — uses 3 occurrences by default.
``MosaicConfig(min_group_size=2)`` restores the strict paper rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.meanshift import mean_shift
from ..darshan.trace import Direction, OperationArray
from ..segment.op_segments import SegmentSet, segment_operations
from .categories import Category
from .thresholds import MosaicConfig

__all__ = ["PeriodicGroup", "PeriodicityDetection", "detect_periodicity", "period_magnitude"]

_DIRECTION_LABEL: dict[Direction, Category] = {
    "read": Category.PERIODIC_READ,
    "write": Category.PERIODIC_WRITE,
}


def period_magnitude(period: float, config: MosaicConfig) -> Category:
    """Order-of-magnitude label of a period (paper Table I)."""
    if period <= config.period_second_max:
        return Category.PERIODIC_SECOND
    if period <= config.period_minute_max:
        return Category.PERIODIC_MINUTE
    if period <= config.period_hour_max:
        return Category.PERIODIC_HOUR
    return Category.PERIODIC_DAY_OR_MORE


@dataclass(slots=True, frozen=True)
class PeriodicGroup:
    """One detected periodic operation."""

    direction: Direction
    #: Mean segment duration of the group — the period, in seconds.
    period: float
    #: Mean bytes moved per occurrence.
    mean_volume: float
    #: Number of occurrences grouped together.
    n_occurrences: int
    #: Mean share of the period during which the operation is active.
    busy_fraction: float

    def magnitude(self, config: MosaicConfig) -> Category:
        return period_magnitude(self.period, config)

    def busy_label(self, config: MosaicConfig) -> Category:
        if self.busy_fraction < config.busy_time_threshold:
            return Category.PERIODIC_LOW_BUSY_TIME
        return Category.PERIODIC_HIGH_BUSY_TIME


@dataclass(slots=True, frozen=True)
class PeriodicityDetection:
    """Periodicity verdict for one direction of one trace."""

    direction: Direction
    groups: tuple[PeriodicGroup, ...]
    n_segments: int

    @property
    def periodic(self) -> bool:
        return bool(self.groups)

    @property
    def dominant(self) -> PeriodicGroup | None:
        """Group with most occurrences (ties: larger volume)."""
        if not self.groups:
            return None
        return max(self.groups, key=lambda g: (g.n_occurrences, g.mean_volume))

    def categories(self, config: MosaicConfig) -> frozenset[Category]:
        """Category labels contributed by this detection."""
        if not self.groups:
            return frozenset()
        cats: set[Category] = {Category.PERIODIC, _DIRECTION_LABEL[self.direction]}
        for g in self.groups:
            cats.add(g.magnitude(config))
            cats.add(g.busy_label(config))
        return frozenset(cats)


def _log_features(segments: SegmentSet) -> np.ndarray:
    """(n, 2) log10 feature matrix, clipping degenerate values."""
    dur = np.maximum(segments.durations, 1e-6)
    vol = np.maximum(segments.volumes, 1.0)
    return np.column_stack([np.log10(dur), np.log10(vol)])


def detect_periodicity(
    ops: OperationArray,
    run_time: float,
    direction: Direction,
    config: MosaicConfig,
) -> PeriodicityDetection:
    """Detect periodic operations in one direction's merged stream.

    Dispatches on ``config.periodicity_method``: the paper's
    segmentation + Mean Shift algorithm (default), one of the
    frequency-technique baselines, or the hybrid planned as §V future
    work (Mean Shift first, DFT fallback when segmentation finds
    nothing — e.g. periodicity hidden inside too few or too-coarse
    operations).
    """
    method = config.periodicity_method
    if method == "meanshift":
        return _detect_meanshift(ops, run_time, direction, config)
    if method in ("dft", "autocorr"):
        return _detect_signal(ops, run_time, direction, config, method)
    # hybrid
    det = _detect_meanshift(ops, run_time, direction, config)
    if det.periodic:
        return det
    return _detect_signal(ops, run_time, direction, config, "dft")


def _detect_meanshift(
    ops: OperationArray,
    run_time: float,
    direction: Direction,
    config: MosaicConfig,
) -> PeriodicityDetection:
    """The paper's algorithm: operation segmentation + Mean Shift."""
    segments = segment_operations(ops, run_time)
    n = len(segments)
    if n < config.min_group_size:
        return PeriodicityDetection(direction=direction, groups=(), n_segments=n)

    result = mean_shift(
        _log_features(segments),
        bandwidth=config.meanshift_bandwidth,
        kernel="flat",
    )

    rates = segments.activity_rates
    groups: list[PeriodicGroup] = []
    for k in range(result.n_clusters):
        members = result.members(k)
        if len(members) < config.min_group_size:
            continue
        period = float(segments.durations[members].mean())
        if period < config.min_period:
            continue
        groups.append(
            PeriodicGroup(
                direction=direction,
                period=period,
                mean_volume=float(segments.volumes[members].mean()),
                n_occurrences=int(len(members)),
                busy_fraction=float(rates[members].mean()),
            )
        )
    groups.sort(key=lambda g: (-g.n_occurrences, g.period))
    return PeriodicityDetection(
        direction=direction, groups=tuple(groups), n_segments=n
    )


def _detect_signal(
    ops: OperationArray,
    run_time: float,
    direction: Direction,
    config: MosaicConfig,
    method: str,
) -> PeriodicityDetection:
    """Frequency-technique detection (paper ref. [24], §V future work).

    Bins the merged operations into an activity signal and reports the
    dominant period as a single group.  Occurrence count and busy
    fraction are derived from the operations that fall on the detected
    cadence.
    """
    from ..signalproc.activity import build_activity_signal
    from ..signalproc.autocorr import detect_periodicity_autocorr
    from ..signalproc.dft import detect_periodicity_dft

    n_ops = len(ops)
    if n_ops < config.signal_min_ops or run_time <= 0:
        return PeriodicityDetection(direction=direction, groups=(), n_segments=n_ops)

    signal = build_activity_signal(
        ops,
        run_time,
        n_bins=min(4096, max(256, n_ops * 16)),
    )
    if method == "dft":
        det = detect_periodicity_dft(signal)
        periodic, period = det.periodic, det.period
    else:
        det_ac = detect_periodicity_autocorr(signal)
        periodic, period = det_ac.periodic, det_ac.period

    if not periodic or not period or period < config.min_period:
        return PeriodicityDetection(direction=direction, groups=(), n_segments=n_ops)

    n_occurrences = max(int(run_time // period), 1)
    group = PeriodicGroup(
        direction=direction,
        period=float(period),
        mean_volume=float(ops.total_volume / max(n_occurrences, 1)),
        n_occurrences=n_occurrences,
        busy_fraction=float(min(ops.busy_time / run_time, 1.0)),
    )
    return PeriodicityDetection(
        direction=direction, groups=(group,), n_segments=n_ops
    )
