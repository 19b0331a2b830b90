"""Activity-signal construction: turn an operation stream into an evenly
sampled time series.

Frequency-domain periodicity detection (paper ref. [24], Tarraf et al.,
"Capturing Periodic I/O Using Frequency Techniques") operates on a binned
bandwidth signal rather than on discrete operations.  This module builds
that signal under the same uniform-rate assumption used everywhere else
in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..darshan.trace import OperationArray
from ..kernels import get_backend

__all__ = ["ActivitySignal", "build_activity_signal"]


@dataclass(slots=True, frozen=True)
class ActivitySignal:
    """Evenly-sampled I/O activity (bytes per bin)."""

    values: np.ndarray
    bin_width: float

    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration(self) -> float:
        return len(self.values) * self.bin_width

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def times(self) -> np.ndarray:
        """Bin centers in seconds."""
        return (np.arange(len(self.values)) + 0.5) * self.bin_width


def build_activity_signal(
    ops: OperationArray,
    run_time: float,
    n_bins: int | None = None,
    bin_width: float | None = None,
) -> ActivitySignal:
    """Bin operation volumes into an evenly sampled signal.

    Exactly one of ``n_bins`` / ``bin_width`` may be given; the default is
    1024 bins (enough spectral resolution for periods down to
    ``run_time / 512``).  Each operation's volume is spread uniformly over
    its window; boundary bins receive pro-rata shares.
    """
    if run_time <= 0:
        raise ValueError("run_time must be positive")
    if n_bins is not None and bin_width is not None:
        raise ValueError("give n_bins or bin_width, not both")
    if bin_width is not None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        n_bins = max(1, int(np.ceil(run_time / bin_width)))
    elif n_bins is None:
        n_bins = 1024
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    width = run_time / n_bins
    if len(ops) == 0:
        return ActivitySignal(
            values=np.zeros(n_bins, dtype=np.float64), bin_width=width
        )

    starts = np.clip(ops.starts, 0.0, run_time)
    ends = np.clip(ops.ends, 0.0, run_time)
    values = get_backend().bin_activity(
        starts, ends, ops.volumes, run_time, n_bins
    )
    return ActivitySignal(values=values, bin_width=width)
