"""Mean Shift clustering, implemented from scratch (paper ref. [29],
Fukunaga & Hostetler 1975).

MOSAIC groups trace segments whose (duration, volume) features are
comparable; every group with more than one member is a periodic
operation.  Mean Shift is the right tool because the number of periodic
behaviours per application is unknown a priori — a simulation may
checkpoint *and* read inputs periodically, yielding two modes.

The implementation supports the flat (uniform ball) and Gaussian kernels,
runs all seeds as one vectorized fixed-point iteration, and merges
converged modes closer than the bandwidth.  Complexity O(iters · n²) in
distance evaluations — segments per trace are few (fusion collapsed
them), so this is never the corpus bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.spatial.distance import cdist

from ..kernels import get_backend
from .bandwidth import estimate_bandwidth

__all__ = ["MeanShiftResult", "mean_shift"]

Kernel = Literal["flat", "gaussian"]


@dataclass(slots=True, frozen=True)
class MeanShiftResult:
    """Outcome of a Mean Shift run.

    ``labels[i]`` is the cluster of point ``i``; ``modes[k]`` the density
    mode of cluster ``k``.  Clusters are ordered by decreasing size.
    """

    labels: np.ndarray
    modes: np.ndarray
    n_iter: int
    bandwidth: float

    @property
    def n_clusters(self) -> int:
        return len(self.modes)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def members(self, k: int) -> np.ndarray:
        """Indices of the points in cluster ``k``."""
        return np.flatnonzero(self.labels == k)


def mean_shift(
    X: np.ndarray,
    bandwidth: float | None = None,
    *,
    kernel: Kernel = "flat",
    max_iter: int = 200,
    tol: float = 1e-4,
    quantile: float = 0.3,
) -> MeanShiftResult:
    """Cluster ``X`` (n, d) by Mean Shift.

    Parameters
    ----------
    bandwidth:
        Kernel radius.  ``None`` estimates it via
        :func:`~repro.cluster.bandwidth.estimate_bandwidth` with
        ``quantile``.  A non-positive resolved bandwidth (degenerate
        data) yields a single cluster.
    kernel:
        ``"flat"`` (paper behaviour: hard comparability threshold) or
        ``"gaussian"``.
    tol:
        Convergence threshold on seed movement, relative to bandwidth.
    """
    shift_step = get_backend().shift_step
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = len(X)
    if n == 0:
        return MeanShiftResult(
            labels=np.empty(0, dtype=np.int64),
            modes=np.empty((0, X.shape[1] if X.ndim == 2 else 1)),
            n_iter=0,
            bandwidth=0.0,
        )
    if bandwidth is None:
        bandwidth = estimate_bandwidth(X, quantile=quantile)
    if bandwidth <= 0.0 or n == 1:
        return MeanShiftResult(
            labels=np.zeros(n, dtype=np.int64),
            modes=X.mean(axis=0, keepdims=True),
            n_iter=0,
            bandwidth=float(max(bandwidth or 0.0, 0.0)),
        )

    seeds = X.copy()
    n_iter = 0
    threshold = tol * bandwidth
    for n_iter in range(1, max_iter + 1):
        new = shift_step(seeds, X, bandwidth, kernel)
        move = np.linalg.norm(new - seeds, axis=1).max()
        seeds = new
        if move < threshold:
            break

    # Merge converged seeds closer than the bandwidth into shared modes,
    # preferring denser modes as representatives.
    d_seed = cdist(seeds, X)
    density = (d_seed <= bandwidth).sum(axis=1)
    order = np.argsort(-density, kind="stable")
    modes: list[np.ndarray] = []
    assignment = np.full(n, -1, dtype=np.int64)
    for idx in order:
        if assignment[idx] >= 0:
            continue
        mode = seeds[idx]
        close = np.linalg.norm(seeds - mode, axis=1) <= bandwidth
        unclaimed = close & (assignment < 0)
        assignment[unclaimed] = len(modes)
        modes.append(mode)
    modes_arr = np.asarray(modes)

    # Reorder clusters by decreasing size for deterministic output.
    sizes = np.bincount(assignment, minlength=len(modes_arr))
    new_order = np.argsort(-sizes, kind="stable")
    remap = np.empty_like(new_order)
    remap[new_order] = np.arange(len(new_order))
    return MeanShiftResult(
        labels=remap[assignment],
        modes=modes_arr[new_order],
        n_iter=n_iter,
        bandwidth=float(bandwidth),
    )
