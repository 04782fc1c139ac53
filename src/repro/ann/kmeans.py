"""Lloyd's k-means with k-means++ initialization (IVF/PQ training)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.distances import pairwise_l2_squared
from repro.sim.rng import make_rng


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, d) float32
    assignments: np.ndarray  # (n,) int64
    inertia: float
    iterations: int


def _kmeanspp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (distance-proportional sampling)."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float32)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    closest = pairwise_l2_squared(data, centroids[0:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[i:] = data[rng.integers(0, n, size=k - i)]
            break
        probs = closest / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = data[chosen]
        dist_new = pairwise_l2_squared(data, centroids[i : i + 1]).ravel()
        np.minimum(closest, dist_new, out=closest)
    return centroids


def kmeans(
    data: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-4,
    seed: object = 0,
    sample_limit: int = 100_000,
) -> KMeansResult:
    """Cluster ``data`` (n, d) into ``k`` centroids.

    Training subsamples to ``sample_limit`` points (as ANN libraries do) but
    final assignments cover the full dataset.
    """
    data = np.asarray(data, dtype=np.float32)
    n = data.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot build {k} clusters from {n} points")
    rng = make_rng("kmeans", seed, n, k)

    if n > sample_limit:
        train = data[rng.choice(n, size=sample_limit, replace=False)]
    else:
        train = data

    centroids = _kmeanspp_init(train, k, rng)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = pairwise_l2_squared(train, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(train.shape[0]), labels].sum())
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = train[labels == cluster]
            if members.shape[0] > 0:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                farthest = int(distances.min(axis=1).argmax())
                new_centroids[cluster] = train[farthest]
        centroids = new_centroids
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            break
        previous_inertia = inertia

    full_distances = pairwise_l2_squared(data, centroids)
    assignments = full_distances.argmin(axis=1).astype(np.int64)
    _fill_empty_clusters(assignments, full_distances)
    inertia = float(full_distances[np.arange(n), assignments].sum())
    return KMeansResult(centroids, assignments, inertia, iterations)


def _fill_empty_clusters(assignments: np.ndarray, distances: np.ndarray) -> None:
    """Give every cluster at least one member, in place.

    The final assignment can leave a centroid with no nearest point; an IVF
    probe of such a cluster would scan nothing.  Each empty cluster takes
    the point nearest to its centroid among clusters with more than one
    member (one always exists since n >= k).  Centroids do not move, so the
    coarse ranking of every query is unchanged.
    """
    counts = np.bincount(assignments, minlength=distances.shape[1])
    for cluster in np.flatnonzero(counts == 0):
        reach = np.where(counts[assignments] > 1, distances[:, cluster], np.inf)
        point = int(reach.argmin())
        counts[assignments[point]] -= 1
        counts[cluster] = 1
        assignments[point] = cluster
