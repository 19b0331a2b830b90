"""DFT-based periodicity detection (frequency-technique baseline).

Implements the approach of the paper's related work [24]: compute the
discrete Fourier transform of the binned activity signal, find the
dominant non-DC spectral peak, and report its period together with a
confidence score (share of non-DC spectral energy held by the peak and
its immediate neighbours).

The paper's criticism — "this approach fails to distinguish between two
intricate periodic behaviors" — is reproduced by the ABL-PERIOD
benchmark: the detector returns only the *dominant* period, whereas
MOSAIC's Mean Shift grouping resolves multiple concurrent periodicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import get_backend
from .activity import ActivitySignal

__all__ = ["DftDetection", "detect_periodicity_dft"]


@dataclass(slots=True, frozen=True)
class DftDetection:
    """Result of the frequency-domain periodicity check."""

    periodic: bool
    #: Dominant period in seconds (NaN when not periodic).
    period: float
    #: Share of non-DC spectral energy in the dominant peak (0..1).
    confidence: float
    #: Dominant frequency in Hz (NaN when not periodic).
    frequency: float


def detect_periodicity_dft(
    signal: ActivitySignal,
    *,
    min_confidence: float = 0.15,
    min_cycles: int = 3,
) -> DftDetection:
    """Detect the dominant periodicity of an activity signal.

    Parameters
    ----------
    min_confidence:
        Minimum share of non-DC spectral energy concentrated in the
        dominant peak (±1 bin) for the signal to count as periodic.
    min_cycles:
        Minimum number of repetitions inside the observation window; a
        "period" seen fewer times is not evidence of periodicity.
    """
    x = np.asarray(signal.values, dtype=np.float64)
    n = len(x)
    not_periodic = DftDetection(
        periodic=False, period=float("nan"), confidence=0.0, frequency=float("nan")
    )
    if n < 2 * min_cycles or signal.duration <= 0.0 or float(x.sum()) <= 0.0:
        return not_periodic

    x = x - x.mean()
    if not np.any(x):
        return not_periodic

    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(n, d=signal.bin_width)
    # Drop DC and frequencies slower than min_cycles repetitions.
    f_min = min_cycles / signal.duration
    valid = freqs >= f_min
    if not np.any(valid):
        return not_periodic
    power = np.where(valid, spectrum, 0.0)
    total = float(power.sum())
    if total <= 0:
        return not_periodic

    # A short-duty pulse train spreads its energy over a harmonic comb.
    # Score candidate fundamentals by comb power minus *anti-comb* power
    # (the bins halfway between harmonics): a genuine period has an empty
    # anti-comb, while a single broadband burst fills comb and anti-comb
    # alike and scores ~zero.  Normalizing by slot count stops sub-
    # multiples of the true fundamental (whose combs contain the true
    # comb plus empty slots) from outscoring it.  Candidates are the
    # sub-multiples of the argmax bin: if the argmax landed on a
    # harmonic, the true fundamental divides it.
    k_peak = int(np.argmax(power))
    k_min = int(np.ceil(f_min * n * signal.bin_width))

    def refine(k: int) -> float:
        """Sub-bin peak position by parabolic interpolation."""
        if 1 <= k < len(power) - 1:
            y0, y1, y2 = power[k - 1], power[k], power[k + 1]
            denom = y0 - 2 * y1 + y2
            if denom != 0:
                return k + float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
        return float(k)

    # Candidate fundamentals are the sub-multiples of the argmax bin: if
    # the argmax landed on a harmonic, the true fundamental divides it.
    # Each candidate is scored comb-minus-anticomb over float harmonic
    # positions (fundamentals between bins drift off integer combs) and
    # normalized per slot, so sub-multiples of the true fundamental —
    # whose combs contain the true comb plus empty slots — cannot
    # outscore it.  A genuine period has an empty anti-comb; a single
    # broadband burst fills comb and anti-comb alike and scores ~zero.
    candidates = np.asarray(
        [refine(k_peak) / m for m in range(1, 5) if k_peak // m >= max(k_min, 1)]
    )
    if len(candidates) == 0:
        return not_periodic
    per_slot, nets = get_backend().dft_comb_scores(power, candidates, 12)
    best_idx = int(np.argmax(per_slot))
    best = float(candidates[best_idx])
    confidence = float(np.clip(nets[best_idx] / total, 0.0, 1.0))
    if confidence < min_confidence:
        return not_periodic

    freq = best / (n * signal.bin_width)
    return DftDetection(
        periodic=True, period=1.0 / freq, confidence=confidence, frequency=freq
    )
