"""Cluster-quality metrics.

Used by the periodicity ablation to compare Mean Shift groupings against
ground truth, and by threshold-calibration utilities.
"""

from __future__ import annotations

import numpy as np

from ..kernels.vectorized import pairwise_distances

__all__ = [
    "within_cluster_spread",
    "silhouette_mean",
    "pair_confusion",
    "adjusted_rand_index",
]


def within_cluster_spread(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean distance of points to their cluster centroid."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if len(X) == 0:
        return 0.0
    total = 0.0
    for k in np.unique(labels):
        pts = X[labels == k]
        total += float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).sum())
    return total / len(X)


def silhouette_mean(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; 0.0 when undefined (single cluster
    or singleton-only clustering)."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2 or len(X) < 3:
        return 0.0
    d = pairwise_distances(X, X)
    scores = []
    for i in range(len(X)):
        same = labels == labels[i]
        same[i] = False
        if not same.any():
            continue  # singleton: silhouette undefined for this point
        a = d[i, same].mean()
        b = min(d[i, labels == k].mean() for k in uniq if k != labels[i])
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores)) if scores else 0.0


def pair_confusion(true: np.ndarray, pred: np.ndarray) -> tuple[int, int, int, int]:
    """Pairwise (TP, FP, FN, TN) between two labelings of the same points."""
    true = np.asarray(true)
    pred = np.asarray(pred)
    if true.shape != pred.shape:
        raise ValueError("labelings must have equal length")
    n = len(true)
    tp = fp = fn = tn = 0
    for i in range(n):
        same_t = true[i + 1 :] == true[i]
        same_p = pred[i + 1 :] == pred[i]
        tp += int(np.sum(same_t & same_p))
        fp += int(np.sum(~same_t & same_p))
        fn += int(np.sum(same_t & ~same_p))
        tn += int(np.sum(~same_t & ~same_p))
    return tp, fp, fn, tn


def adjusted_rand_index(true: np.ndarray, pred: np.ndarray) -> float:
    """Adjusted Rand index between two labelings (1.0 = identical
    partitions, ~0.0 = random agreement)."""
    tp, fp, fn, tn = pair_confusion(true, pred)
    total = tp + fp + fn + tn
    if total == 0:
        return 1.0
    expected = (tp + fp) * (tp + fn) / total
    maximum = 0.5 * ((tp + fp) + (tp + fn))
    if maximum == expected:
        return 1.0
    return (tp - expected) / (maximum - expected)
