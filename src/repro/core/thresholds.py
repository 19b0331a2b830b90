"""MOSAIC configuration: every threshold of the paper in one place.

The paper fixes most thresholds explicitly (§III-A, §III-B) and sets the
remaining clustering thresholds "empirically ... on one month of traces".
This dataclass records them all; the pipeline takes a config instance so
the amount of I/O activity to categorize can be extended or narrowed, as
the paper notes for the 100 MB rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..darshan.tolerance import TIME_TOLERANCE_S, close_to
from ..merge.neighbor import NeighborMergeConfig
from .governor import ResourceBudget

__all__ = [
    "MosaicConfig",
    "DEFAULT_CONFIG",
    "TIME_TOLERANCE_S",
    "close_to",
    "ResourceBudget",
]

MB = 1024 * 1024


@dataclass(slots=True, frozen=True)
class MosaicConfig:
    """All tunables of the MOSAIC categorization algorithm."""

    # -- significance (§III-A) -------------------------------------------
    #: Directions moving fewer bytes than this are `insignificant`
    #: (paper: 100 MB).
    insignificant_bytes: int = 100 * MB
    #: A trace whose metadata operation count is below `nprocs` carries
    #: `metadata_insignificant_load` (paper: "fewer metadata operations
    #: than the number of ranks").
    metadata_min_ops_per_rank: float = 1.0

    # -- event fusion (§III-B2) -------------------------------------------
    merge: NeighborMergeConfig = field(default_factory=NeighborMergeConfig)

    # -- temporality (§III-B3b) -------------------------------------------
    #: Number of equal temporal chunks (paper: 4 × 25%).
    n_chunks: int = 4
    #: A chunk dominates when it holds more than `dominance_factor` times
    #: the bytes of every other chunk (paper: "more than twice").
    dominance_factor: float = 2.0
    #: Coefficient-of-variation bound under which chunks count as equal
    #: and the direction is `steady` (paper: 25%).
    steady_cv: float = 0.25

    # -- periodicity (§III-B3a; §V for the signal-processing methods) ------
    #: Detection method: "meanshift" is the paper's algorithm;
    #: "dft" / "autocorr" are the frequency-technique baselines of
    #: ref. [24]; "hybrid" runs Mean Shift and falls back to the DFT when
    #: segmentation finds nothing — the integration the paper plans as
    #: short-term future work.
    periodicity_method: str = "meanshift"
    #: Mean Shift bandwidth in log10 feature space over (duration,
    #: volume): segments within this radius share a mode.  0.15 ≈ "same
    #: within ×1.4" — the empirically-set comparability threshold.
    meanshift_bandwidth: float = 0.15
    #: Minimum mode population for a periodic operation (paper: "size
    #: strictly greater than 1"; our calibration keeps 3 as the default —
    #: see periodicity module docstring).
    min_group_size: int = 3
    #: Segments shorter than this (seconds) are clock noise, not periods.
    min_period: float = 1.0
    #: Minimum merged-operation count before the signal-processing
    #: detectors (DFT/autocorrelation) run: they need a handful of
    #: repetitions to see a fundamental, independent of the Mean Shift
    #: group-size rule.
    signal_min_ops: int = 3
    #: Boundaries of period magnitude labels (seconds).
    period_second_max: float = 60.0
    period_minute_max: float = 3600.0
    period_hour_max: float = 86400.0
    #: Activity-rate split between low and high busy-time labels
    #: (paper §IV-D: 96% of periodic writers are busy < 25% of the time).
    busy_time_threshold: float = 0.25

    # -- metadata impact (§III-B3c) ----------------------------------------
    #: Requests/second above which one bin is a *high spike* (paper: 250,
    #: derived from Mistral's ≈3000 req/s saturation point).
    high_spike_rate: float = 250.0
    #: Requests/second for an ordinary spike (paper: 50).
    spike_rate: float = 50.0
    #: Number of spikes required for `multiple_spikes` / `high_density`
    #: (paper: 5).
    min_spikes: int = 5
    #: Average requests/second across the execution for `high_density`
    #: (paper: 50).
    density_rate: float = 50.0
    #: Width of metadata rate bins in seconds (paper reasons per second).
    metadata_bin_seconds: float = 1.0

    # -- per-trace resource governance (extension; docs/ROBUSTNESS.md) ----
    #: Soft per-trace budget driving the degradation ladder
    #: (see :mod:`repro.core.governor`).  The default is unlimited:
    #: governance is opt-in and the ungoverned pipeline is unchanged.
    budget: ResourceBudget = field(default_factory=ResourceBudget)

    def __post_init__(self) -> None:
        if self.insignificant_bytes < 0:
            raise ValueError("insignificant_bytes must be >= 0")
        if self.n_chunks < 2:
            raise ValueError("n_chunks must be >= 2")
        if self.dominance_factor <= 1.0:
            raise ValueError("dominance_factor must be > 1")
        if not 0.0 < self.steady_cv < 1.0:
            raise ValueError("steady_cv must be in (0, 1)")
        if self.periodicity_method not in ("meanshift", "dft", "autocorr", "hybrid"):
            raise ValueError(
                f"unknown periodicity_method: {self.periodicity_method!r}"
            )
        if self.meanshift_bandwidth <= 0:
            raise ValueError("meanshift_bandwidth must be positive")
        if self.min_group_size < 2:
            raise ValueError("min_group_size must be >= 2 (paper: > 1)")
        if self.signal_min_ops < 2:
            raise ValueError("signal_min_ops must be >= 2")
        if not (
            0
            < self.period_second_max
            < self.period_minute_max
            < self.period_hour_max
        ):
            raise ValueError("period magnitude boundaries must increase")
        if not 0.0 < self.busy_time_threshold < 1.0:
            raise ValueError("busy_time_threshold must be in (0, 1)")
        if self.spike_rate > self.high_spike_rate:
            raise ValueError("spike_rate must not exceed high_spike_rate")
        if self.min_spikes < 1:
            raise ValueError("min_spikes must be >= 1")
        if self.metadata_bin_seconds <= 0:
            raise ValueError("metadata_bin_seconds must be positive")

    def with_overrides(self, **kwargs: Any) -> "MosaicConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: The paper's thresholds.
DEFAULT_CONFIG = MosaicConfig()
