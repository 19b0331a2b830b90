"""Bandwidth selection for Mean Shift.

MOSAIC's periodicity detection clusters segments on (duration, volume);
the bandwidth is the threshold at which two segments count as "the same
periodic operation".  The paper sets it empirically on one month of
traces; this module provides both that fixed-threshold mode and the
classical k-nearest-neighbour quantile estimator for datasets where no
calibration exists, on distances from the NumPy kernel
:func:`~repro.kernels.vectorized.pairwise_distances`.
"""

from __future__ import annotations

import numpy as np

from ..kernels.vectorized import pairwise_distances

__all__ = ["estimate_bandwidth"]


def estimate_bandwidth(
    X: np.ndarray, quantile: float = 0.3, max_samples: int = 500, seed: int = 0
) -> float:
    """Estimate a Mean Shift bandwidth from the data.

    For every point, take the distance to its ``ceil(quantile * n)``-th
    nearest neighbour and average — the standard estimator (Comaniciu &
    Meer style, also used by scikit-learn).  Quadratic in ``n``; inputs
    larger than ``max_samples`` are subsampled deterministically.

    Returns 0.0 for degenerate inputs (``n < 2`` or all points equal);
    callers should treat 0.0 as "no structure, single cluster".
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = len(X)
    if n < 2:
        return 0.0
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    if n > max_samples:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(n, size=max_samples, replace=False)]
        n = max_samples
    k = max(1, int(np.ceil(quantile * n)))
    d = pairwise_distances(X, X)
    d.sort(axis=1)
    # column 0 is the self-distance (0); the k-th neighbour is column k
    kth = d[:, min(k, n - 1)]
    return float(kth.mean())
