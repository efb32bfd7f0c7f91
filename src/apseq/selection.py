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
        values: ap_id -> rss_dbm of each AP heard.
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
    return _clustering(ids, xs, _lloyd(xs, distinct[:k] if top_ranks else _optimal_split_means(xs, k)))


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


def _lloyd(xs: list[float], centroids: list[float]) -> list[tuple[list[int], list[float]]]:
    """kmeans_1d's Lloyd loop over _rank's xs from strongest-first centroids:
    each pass's (run bounds, run means), the last pass's runs the result."""
    k = len(centroids)
    # Values and centroids both run strongest-first, so every pass splits xs
    # into k contiguous runs, one per centroid.
    bounds, passes = _nearest_runs(xs, centroids), []
    while True:
        if len(set(bounds)) <= k:
            # A Lloyd pass can strand a centroid, and centroids a few ulps
            # apart can tie, so that no value is nearest to some centroid.
            empty = [c for c, (a, b) in enumerate(zip(bounds, bounds[1:]), 1) if a == b]
            raise ValueError(f"K-means left clusters {empty} of {k} empty (numbered strongest-first "
                             f"from 1): no RSS value is nearest to their centroids")
        cents = [_sum(xs[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]
        passes.append((bounds, cents))
        if len(passes) >= MAX_ITERATIONS or (bounds := _nearest_runs(xs, cents)) == passes[-1][0]:
            return passes


def _clustering(ids: list[int], xs: list[float], passes: list) -> Clustering:
    """The Clustering of _lloyd's passes over _rank's ids and xs: the last
    pass's runs, and each pass's objective at its run means."""
    history = tuple([_sum([(x - c) ** 2 for a, b, c in zip(bounds, bounds[1:], cents) for x in xs[a:b]])
                     for bounds, cents in passes])
    bounds, cents = passes[-1]
    clusters = tuple([Cluster(tuple(zip(ids[a:b], xs[a:b])), c) for a, b, c in zip(bounds, bounds[1:], cents)])
    return Clustering(clusters, len(passes), history)


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
