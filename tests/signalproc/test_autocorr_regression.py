"""Regression tests for the autocorrelation peak-selection fixes.

Three defects are pinned here:

1. The peak scan used a plateau test (``acf[lag] >= acf[lag-1]``) that
   latches onto the trailing edge of a plateau on the ACF decay shoulder
   instead of a true local maximum further out.  The scan now requires a
   strict rise.
2. The reported strength was read at the integer lag even though the
   reported period came from the parabolically refined lag, so the
   (period, strength) pair described two different points of the ACF.
   The strength is now the interpolated peak value.
3. The refined period could drop below one bin (lag 1, delta -0.5);
   it is now clamped to ≥ 1 bin.
"""

import contextlib

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.signalproc.activity import ActivitySignal
from repro.signalproc.autocorr import _autocorrelation, detect_periodicity_autocorr
from repro.testing import reference_kernels
from repro.testing.differential import SIGNAL_PROFILES, adversarial_signal

# A crafted ACF: the decay shoulder flattens into an exact plateau at
# lags 2-3, then the true periodicity peak sits at lag 6.
PLATEAU_ACF = np.array(
    [1.0, 0.8, 0.6, 0.6, 0.3, 0.5, 0.9, 0.4, 0.2, 0.1, 0.05, 0.0]
)


def _peak_scan(backend):
    """The oracle's ACF peak scan, or the runtime's (from kernels.vectorized)."""
    swap = reference_kernels() if backend == "reference" else contextlib.nullcontext()
    with swap:
        return get_backend().acf_peak_scan


def _old_plateau_scan(acf, max_lag, min_strength):
    """The pre-fix selection rule (kept verbatim for the regression)."""
    n = len(acf)
    for lag in range(1, max_lag):
        left = acf[lag - 1]
        right = acf[lag + 1] if lag + 1 < n else -np.inf
        if acf[lag] >= left and acf[lag] > right and acf[lag] >= min_strength:
            return lag
    return -1


class TestPeakScanStrictRise:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_plateau_edge_is_not_a_peak(self, backend):
        scan = _peak_scan(backend)
        # The old rule latched the plateau edge at lag 3 (0.6 >= 0.6,
        # > 0.3) — mis-detecting the decay shoulder as a period.
        assert _old_plateau_scan(PLATEAU_ACF, 10, 0.2) == 3
        # The strict rule walks past the shoulder to the true peak.
        assert scan(PLATEAU_ACF, 10, 0.2) == 6

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_monotone_decay_has_no_peak(self, backend):
        scan = _peak_scan(backend)
        acf = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
        assert scan(acf, 6, 0.2) == -1

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_strength_floor_enforced(self, backend):
        scan = _peak_scan(backend)
        acf = np.array([1.0, 0.0, 0.15, 0.0, 0.0, 0.0])
        assert scan(acf, 5, 0.2) == -1
        assert scan(acf, 5, 0.1) == 2


class TestRefinedStrengthAndClamp:
    def test_strength_reported_at_refined_peak(self):
        # An off-grid period (true peak between integer lags) forces a
        # non-zero parabolic offset: the interpolated peak strength must
        # be at least the integer-lag sample the old code reported.
        period_bins = 7.5
        n = 240
        t = np.arange(n)
        values = (np.sin(2 * np.pi * t / period_bins) > 0.6).astype(float)
        sig = ActivitySignal(values=values, bin_width=2.0)
        det = detect_periodicity_autocorr(sig)
        assert det.periodic
        acf = _autocorrelation(values)
        assert det.strength >= float(acf[det.lag]) - 1e-12
        assert det.period == pytest.approx(period_bins * sig.bin_width, rel=0.1)
        assert 0.0 <= det.strength <= 1.0

    def test_period_never_below_one_bin(self):
        # The clamp guard: across the adversarial signal families the
        # refined period must never undershoot the bin width (the old
        # unclamped refinement could report half a bin).
        for case, profile in enumerate(SIGNAL_PROFILES * 40):
            rng = np.random.default_rng(911 + case)
            values = adversarial_signal(rng, profile)
            sig = ActivitySignal(values=np.abs(values), bin_width=3.0)
            det = detect_periodicity_autocorr(sig)
            if det.periodic:
                assert det.period >= sig.bin_width - 1e-12
                assert 0.0 <= det.strength <= 1.0
