"""Metadata impact characterization (paper §III-B3c, workflow step ③c).

MOSAIC reconstructs a per-second metadata request rate from the OPEN,
CLOSE and SEEK counters of each record (SEEKs assumed co-located with
OPENs since Blue Waters-era Darshan does not timestamp them) and assigns:

* ``metadata_insignificant_load`` — fewer metadata ops than ranks;
* ``metadata_high_spike`` — more than 250 requests within one second at
  least once (the threshold derives from mdworkbench measurements on
  Mistral, whose Lustre setup resembles Blue Waters and saturates around
  3000 req/s);
* ``metadata_multiple_spikes`` — at least 5 one-second bins with ≥ 50
  requests;
* ``metadata_high_density`` — at least 5 spikes *and* an average of ≥ 50
  requests per second throughout the execution.

The labels are non-exclusive (a trace can be high-spike *and*
high-density).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..darshan.trace import Trace
from ..kernels import batched
from .categories import Category
from .thresholds import MosaicConfig

__all__ = [
    "MetadataDetection",
    "classify_metadata",
    "detect_from_rate",
    "insignificant_metadata",
    "metadata_rate",
]


@dataclass(slots=True, frozen=True)
class MetadataDetection:
    """Metadata verdict of one trace."""

    categories: frozenset[Category]
    total_requests: int
    peak_rate: float
    mean_rate: float
    n_spikes: int

    @property
    def significant(self) -> bool:
        return Category.METADATA_INSIGNIFICANT_LOAD not in self.categories


def insignificant_metadata(total: int) -> MetadataDetection:
    """The below-threshold verdict (fewer metadata ops than ranks)."""
    return MetadataDetection(
        categories=frozenset({Category.METADATA_INSIGNIFICANT_LOAD}),
        total_requests=total,
        peak_rate=0.0,
        mean_rate=0.0,
        n_spikes=0,
    )


def detect_from_rate(
    total: int, rate: np.ndarray, config: MosaicConfig
) -> MetadataDetection:
    """Apply the spike/density rules to a per-second request rate.

    Shared by the per-trace path and the store-backed batch path (which
    bins many traces in one segmented dispatch and hands each trace's
    rate slice here), so the two stay byte-identical.
    """
    peak = float(rate.max()) if len(rate) else 0.0
    mean = float(rate.mean()) if len(rate) else 0.0
    n_spikes = int(np.count_nonzero(rate >= config.spike_rate))

    cats: set[Category] = set()
    if peak > config.high_spike_rate:
        cats.add(Category.METADATA_HIGH_SPIKE)
    if n_spikes >= config.min_spikes:
        cats.add(Category.METADATA_MULTIPLE_SPIKES)
        if mean >= config.density_rate:
            cats.add(Category.METADATA_HIGH_DENSITY)

    return MetadataDetection(
        categories=frozenset(cats),
        total_requests=total,
        peak_rate=peak,
        mean_rate=mean,
        n_spikes=n_spikes,
    )


def metadata_rate(trace: Trace, bin_width: float) -> np.ndarray:
    """Metadata requests per second of ``trace``, per ``bin_width`` bin.

    The trace's records are one segment of the closed-form binning
    kernel; the bins cover ``max(run_time, bin_width)``.
    """
    values, _ = batched.bin_events_segmented(
        *trace.metadata_columns(),
        np.array([0, len(trace.records)]),
        np.array([max(trace.meta.run_time, bin_width)]),
        bin_width,
    )
    # Normalize to requests per second regardless of bin width.
    values /= bin_width
    return values


def classify_metadata(trace: Trace, config: MosaicConfig) -> MetadataDetection:
    """Classify the metadata-server impact of ``trace``."""
    total = trace.total_metadata_ops
    threshold = config.metadata_min_ops_per_rank * max(trace.meta.nprocs, 1)
    if total < threshold:
        return insignificant_metadata(total)
    rate = metadata_rate(trace, config.metadata_bin_seconds)
    return detect_from_rate(total, rate, config)
