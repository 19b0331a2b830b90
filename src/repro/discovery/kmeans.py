"""K-means clustering, implemented from scratch.

Used by the automatic category-discovery extension (paper §V).  Features
k-means++ seeding, multiple restarts, empty-cluster reseeding, and an
inertia-based model-selection helper.  No scikit-learn dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.vectorized import pairwise_distances

__all__ = ["KMeansResult", "kmeans", "select_k"]


@dataclass(slots=True, frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int

    @property
    def k(self) -> int:
        return len(self.centers)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _kmeanspp_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D² sampling."""
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(0, n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = X[rng.integers(0, n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((X - centers[i]) ** 2, axis=1))
    return centers


def _fit_once(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, tol: float
) -> KMeansResult:
    centers = _kmeanspp_init(X, k, rng)
    labels = np.zeros(len(X), dtype=np.int64)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d = pairwise_distances(X, centers)
        labels = np.argmin(d, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = X[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
            else:
                # reseed an empty cluster at the farthest point
                far = int(np.argmax(np.min(d, axis=1)))
                new_centers[j] = X[far]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < tol:
            break
    d = pairwise_distances(X, centers)
    labels = np.argmin(d, axis=1)
    inertia = float(np.sum(np.min(d, axis=1) ** 2))
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=n_iter)


def kmeans(
    X: np.ndarray,
    k: int,
    *,
    n_init: int = 8,
    max_iter: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Fit k-means with ``n_init`` k-means++ restarts; keep the best."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n = len(X)
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(max(n_init, 1)):
        result = _fit_once(X, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def select_k(
    X: np.ndarray,
    k_max: int = 10,
    *,
    seed: int = 0,
    elbow_ratio: float = 0.15,
) -> int:
    """Pick k by the elbow rule: the smallest k whose marginal inertia
    reduction drops below ``elbow_ratio`` of the total reduction."""
    X = np.asarray(X, dtype=np.float64)
    k_max = min(k_max, len(X))
    if k_max <= 1:
        return max(k_max, 1)
    inertias = [kmeans(X, k, seed=seed, n_init=4).inertia for k in range(1, k_max + 1)]
    total_drop = inertias[0] - inertias[-1]
    if total_drop <= 0:
        return 1
    for k in range(1, k_max):
        drop = inertias[k - 1] - inertias[k]
        if drop < elbow_ratio * total_drop:
            return k
    return k_max
