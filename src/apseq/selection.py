"""AP selection: 1-D K-means over RSS values and candidate AP subsets.

Clustering the scan's RSS values groups APs with near-equal signal, which
under path loss means near-equal distance.  Picking one AP per cluster
yields subsets whose ordering is robust to noise; candidate_picks walks the
Cartesian product of per-cluster picks, the subsets localization tries.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Mapping

import numpy as np

from .model import Signature

MAX_ITERATIONS = 100


class DegenerateClusteringError(ValueError):
    """Raised when fewer distinct RSS values exist than requested clusters."""

    def __init__(self, requested: int, max_k: int):
        super().__init__(f"degenerate clustering: {requested} clusters requested but only "
                         f"{max_k} distinct RSS values")


@dataclass(frozen=True)
class Cluster:
    """One RSS cluster: members ordered strongest-first, centroid = mean."""

    members: tuple[tuple[int, float], ...]  # (ap_id, rss_dbm), rss descending
    centroid: float

    @property
    def ap_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.members)


@dataclass(frozen=True)
class Clustering:
    """K-means result.  Clusters are ordered strongest-first.

    objective_history holds the within-cluster sum of squared deviations
    sum((x - centroid)**2) after each assignment pass, evaluated at the
    cluster means of that pass.  The default (exact) clustering confirms its
    split in one pass, so its history is the single optimal objective; with
    top_ranks, Lloyd's mean updates descend this quantity, so the history
    is non-increasing.  The absolute-difference rule used for assignment
    picks the same nearest centroid either way.
    """

    clusters: tuple[Cluster, ...]
    iterations: int
    objective_history: tuple[float, ...]

    @property
    def objective(self) -> float:
        return self.objective_history[-1]


def kmeans_1d(values: Mapping[int, float], k: int, top_ranks: bool = False) -> Clustering:
    """1-D K-means on scalar RSS values with |x - centroid| assignment.

    By default the result is the exact optimum: the split of the sorted
    values into k contiguous runs with the least within-cluster squared
    deviation, never separating equal values (Wang & Song 2011,
    "Ckmeans.1d.dp").  Its run means seed one assignment pass, which
    confirms the split.

    Args:
        values: ap_id -> detected rss_dbm (no sentinels).
        k: number of clusters, >= 1.
        top_ranks: when True, Lloyd's algorithm runs from the k strongest
            distinct values as initial centroids instead, and may stop in
            a local optimum.

    Returns:
        Clustering with clusters ordered strongest-first.  Assignment ties
        go to the centroid with the higher RSS value.

    Raises:
        DegenerateClusteringError: fewer than k distinct values.
        ValueError: a value is NaN or infinite, or so large that the
            squared deviations would overflow; or a pass left a cluster
            empty (no value nearest to its centroid), which a Lloyd pass
            and values within a few ulps of each other can both do.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not values:
        raise ValueError("no RSS values to cluster")
    ids, xs, distinct, fault = _rank(values)
    if fault:
        raise ValueError(fault)
    if len(distinct) < k:
        raise DegenerateClusteringError(k, len(distinct))
    return _lloyd(ids, xs, distinct[:k] if top_ranks else _optimal_split_means(xs, k))


def _rank(values: Mapping[int, float]) -> tuple:
    """(ids, xs, distinct, fault): the ids strongest first, ties by id; their
    values; the distinct values, strongest first; and why kmeans_1d refuses
    the values (not finite, or so large that squares would overflow), or None."""
    ids = sorted(values, key=lambda i: (-values[i], i))
    xs = [values[i] for i in ids]
    # Every sum in _lloyd, and its square, is at most (n * 2 * max|v|)**2.
    bound = len(xs) * 2.0 * max(map(abs, xs), default=0.0)
    if not all(map(math.isfinite, xs)):
        fault = "RSS values to cluster must be finite"
    else:
        fault = None if math.isfinite(bound * bound) else "RSS values to cluster are too large"
    return ids, xs, sorted(set(xs), reverse=True), fault


def _lloyd(ids: list[int], xs: list[float], centroids: list[float]) -> Clustering:
    """kmeans_1d's Lloyd loop over _rank's ids and xs, from strongest-first centroids."""
    k = len(centroids)
    # Values and centroids both run strongest-first, so every pass splits xs
    # into k contiguous runs, one per centroid.
    bounds, history, iterations = _nearest_runs(xs, centroids), [], 1
    while True:
        runs = list(zip(bounds, bounds[1:]))
        empty = [c for c, (a, b) in enumerate(runs, 1) if a == b]
        if empty:
            # A Lloyd pass can strand a centroid, and centroids a few ulps
            # apart can tie, so that no value is nearest to some centroid.
            raise ValueError(f"K-means left clusters {empty} of {k} empty (numbered strongest-first "
                             f"from 1): no RSS value is nearest to their centroids")
        centroids = [_sum(xs[a:b]) / (b - a) for a, b in runs]
        history.append(_sum((x - c) ** 2 for (a, b), c in zip(runs, centroids) for x in xs[a:b]))
        if iterations >= MAX_ITERATIONS or (new_bounds := _nearest_runs(xs, centroids)) == bounds:
            break
        bounds, iterations = new_bounds, iterations + 1
    clusters = tuple(Cluster(tuple(zip(ids[a:b], xs[a:b])), c) for (a, b), c in zip(runs, centroids))
    return Clustering(clusters, iterations, tuple(history))


def _nearest_runs(xs: list[float], cents: list[float]) -> list[int]:
    """Run bounds [0, ..., len(xs)] of the nearest-centroid assignment.

    xs and cents are sorted descending; run c is xs[bounds[c]:bounds[c + 1]].
    Each run ends at the first value strictly nearer to the next centroid,
    so ties go to the stronger (higher-RSS) centroid.
    """
    bounds = [0]
    for here, there in zip(cents, cents[1:]):
        i = bounds[-1]
        while i < len(xs) and abs(xs[i] - there) >= abs(xs[i] - here):
            i += 1
        bounds.append(i)
    bounds.append(len(xs))
    return bounds


def _sum(xs) -> float:  # left to right on every Python: sum() of floats is compensated from 3.12
    return reduce(operator.add, xs, 0.0)


def lloyd_runs(xs: np.ndarray, sizes: np.ndarray, seeds: np.ndarray, ks: np.ndarray) -> tuple:
    """_lloyd's run bounds for many rows at once, bit for bit: (bounds, failed).

    Row r clusters xs[r, :sizes[r]] (sorted strongest-first, then padding)
    from the centroids seeds[r, :ks[r]].  bounds[r, :ks[r] + 1] are its run
    bounds unless failed[r]: a pass left a cluster empty, and _lloyd raises.
    """
    (rows, width), kmax = xs.shape, seeds.shape[1]
    every, at, runs = np.arange(rows), np.arange(width + 1), np.arange(kmax) < ks[:, None]
    x = np.pad(xs, ((0, 0), (0, 1)))[:, :, None]
    # bincount adds each (row, run) slot's values in order; padding has slot kmax.
    slot = every[:, None] * (kmax + 1) + (at[:width] >= sizes[:, None])
    bounds, failed, cents = np.full((rows, kmax + 1), -1), np.zeros(rows, dtype=bool), seeds
    for _ in range(MAX_ITERATIONS):
        # _nearest_runs of every row; no value is nearer to the centroids past a row's k.
        d = np.abs(x - np.where(runs, cents, np.inf)[:, None, :])
        # stop[r, i, c]: the first j >= i at which value j is strictly nearer to centroid c + 1 than to c.
        stop = np.minimum.accumulate(np.where(d[:, :, 1:] >= d[:, :, :-1], width, at[:, None])[:, ::-1], axis=1)
        new = np.zeros_like(bounds)
        new[:, kmax] = sizes
        for c in range(kmax - 1):
            new[:, c + 1] = np.minimum(stop[every, width - new[:, c], c], sizes)
        moved = (new != bounds).any(axis=1) & ~failed
        if not moved.any():
            break
        bounds[moved] = new[moved]
        counts = np.diff(bounds)
        failed |= ((counts == 0) & runs).any(axis=1)
        label = slot + (at[:width, None] >= bounds[:, None, 1:kmax]).sum(axis=2)
        sums = np.bincount(label.ravel(), xs.ravel(), rows * (kmax + 1)).reshape(rows, -1)
        cents = sums[:, :kmax] / np.maximum(counts, 1)
    return bounds, failed


def _optimal_split_means(xs: list[float], k: int) -> list[float]:
    """Means of the least-squares split of xs (sorted descending) into k
    contiguous runs, cutting only between unequal values.

    O(k * n**2) dynamic program over prefix sums; xs must hold at least k
    distinct values.
    """
    n = len(xs)
    shift = _sum(xs) / n  # centred prefix sums keep the run costs precise
    s, s2 = [0.0], [0.0]
    for x in xs:
        s.append(s[-1] + (x - shift))
        s2.append(s2[-1] + (x - shift) ** 2)

    def cost(a: int, b: int) -> float:  # squared deviation of xs[a:b]
        return s2[b] - s2[a] - (s[b] - s[a]) ** 2 / (b - a)

    ends = [i for i in range(1, n) if xs[i - 1] != xs[i]] + [n]
    # best[b] = (objective, run starts) of the best split of xs[:b] into
    # j + 1 runs; such a split cannot end before ends[j].
    best = {b: (cost(0, b), (0,)) for b in ends}
    for j in range(1, k):
        best = {
            b: min(
                (c + cost(a, b), starts + (a,))
                for a, (c, starts) in best.items()
                if a < b
            )
            for b in ends[j:]
        }
    bounds = best[n][1] + (n,)
    return [_sum(xs[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]


def candidate_picks(clustering: Clustering) -> Iterator[Signature]:
    """The candidate walk: one AP per cluster, strongest cluster first, lazily.

    Within each cluster APs are tried strongest-first, and picks come in
    lexicographic order of those per-cluster ranks, so the first pick takes
    the strongest AP of every cluster.  Clusters are runs of the (-rss, id)
    order, so each pick tuple is already the measured signature of its AP
    subset, tuple(sorted(picks)).  This is the order localize tries.
    """
    return itertools.product(*(cl.ap_ids for cl in clustering.clusters))
