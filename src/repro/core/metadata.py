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

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..darshan.trace import Trace
from ..kernels import batched
from .categories import Category
from .thresholds import MosaicConfig

__all__ = [
    "MetadataDetection",
    "classify_metadata",
    "classify_metadata_batch",
    "detect_from_rate",
    "insignificant_metadata",
    "metadata_rate",
    "trace_metadata_events",
]

#: ``gather(rows)``: the record columns ``(t0, t1, opens, n_open,
#: n_close, offsets)`` of batch rows ``rows``, ``rows[j]``'s records
#: being ``offsets[j]:offsets[j+1]``.
MetadataGather = Callable[[list[int]], tuple[np.ndarray, ...]]


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
    """Apply the spike/density rules to one trace's per-second request rate."""
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


def trace_metadata_events(trace: Trace) -> tuple[np.ndarray, ...]:
    """``trace``'s record columns as a one-row :data:`MetadataGather` result."""
    return (*trace.metadata_columns(), np.array([0, len(trace.records)]))


def _rates(
    events: tuple[np.ndarray, ...], run_times: Sequence[float], bin_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Requests per second in each row's ``bin_width`` bins, which cover
    ``max(run_time, bin_width)``: ``(values, bin_offsets)``."""
    *columns, offsets = events
    values, bin_offsets = batched.bin_events_segmented(
        *columns, offsets, np.maximum(run_times, bin_width), bin_width
    )
    values /= bin_width
    return values, bin_offsets


def metadata_rate(trace: Trace, bin_width: float) -> np.ndarray:
    """Metadata requests per second of ``trace``, per ``bin_width`` bin."""
    return _rates(trace_metadata_events(trace), [trace.meta.run_time], bin_width)[0]


def classify_metadata_batch(
    totals: list[int],
    nprocs: list[int],
    run_times: list[float],
    gather: MetadataGather,
    config: MosaicConfig,
) -> list[MetadataDetection]:
    """Classify the metadata-server impact of a batch of traces.

    A trace with fewer metadata requests than ranks is insignificant
    unbinned.  The others' records are gathered once, if any, and binned
    in one closed-form dispatch.
    """
    binned = [
        i
        for i, total in enumerate(totals)
        if total >= config.metadata_min_ops_per_rank * max(nprocs[i], 1)
    ]
    rates: dict[int, np.ndarray] = {}
    if binned:
        values, edges = _rates(
            gather(binned), [run_times[i] for i in binned], config.metadata_bin_seconds
        )
        rates = {i: values[edges[j] : edges[j + 1]] for j, i in enumerate(binned)}
    return [
        detect_from_rate(total, rates[i], config) if i in rates
        else insignificant_metadata(total)
        for i, total in enumerate(totals)
    ]


def classify_metadata(trace: Trace, config: MosaicConfig) -> MetadataDetection:
    """Classify the metadata-server impact of ``trace``."""
    return classify_metadata_batch(
        [trace.total_metadata_ops],
        [trace.meta.nprocs],
        [trace.meta.run_time],
        lambda _rows: trace_metadata_events(trace),
        config,
    )[0]
