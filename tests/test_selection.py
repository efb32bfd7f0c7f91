"""RSS clustering and the candidate walk."""

import itertools
import math
import random
from typing import Mapping

import numpy as np
import pytest

from apseq.selection import (
    MAX_ITERATIONS,
    Cluster,
    Clustering,
    DegenerateClusteringError,
    _optimal_split_means,
    candidate_picks,
    kmeans_1d,
)


class TestKmeansWorkedExamples:
    def test_two_tight_pairs_split_cleanly(self):
        values = {1: -30.0, 2: -32.0, 3: -60.0, 4: -62.0}
        result = kmeans_1d(values, 2)
        members = {frozenset(c.ap_ids) for c in result.clusters}
        assert members == {frozenset({1, 2}), frozenset({3, 4})}
        strong = max(result.clusters, key=lambda c: c.centroid)
        assert strong.centroid == pytest.approx(-31.0)

    def test_single_cluster_centroid_is_the_mean(self):
        values = {1: -40.0, 2: -50.0, 3: -66.0}
        result = kmeans_1d(values, 1)
        assert len(result.clusters) == 1
        assert result.clusters[0].centroid == pytest.approx(-52.0)
        assert set(result.clusters[0].ap_ids) == {1, 2, 3}

    def test_equidistant_value_joins_stronger_centroid(self):
        # -44 and -48 sit exactly between the extremes -40 and -52; the
        # least-squares split is {1,2} vs {3,4}, whose means -42 and -50
        # leave no value equidistant for the stronger-centroid tie rule.
        values = {1: -40.0, 2: -44.0, 3: -48.0, 4: -52.0}
        result = kmeans_1d(values, 2)
        members = {frozenset(c.ap_ids) for c in result.clusters}
        assert members == {frozenset({1, 2}), frozenset({3, 4})}

    def test_clusters_ordered_strongest_first(self):
        values = {5: -80.0, 6: -35.0, 7: -58.0}
        result = kmeans_1d(values, 3)
        cents = [c.centroid for c in result.clusters]
        assert cents == sorted(cents, reverse=True)

    def test_members_sorted_by_descending_rss(self):
        values = {1: -50.0, 2: -46.0, 3: -48.0}
        result = kmeans_1d(values, 1)
        assert result.clusters[0].ap_ids == (2, 3, 1)

    def test_k_equal_to_distinct_values(self):
        values = {1: -30.0, 2: -40.0, 3: -50.0}
        result = kmeans_1d(values, 3)
        assert all(len(c.ap_ids) == 1 for c in result.clusters)
        assert result.objective == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "values, k, want",
        [
            ({1: -40.0, 2: -50.0, 3: -60.0}, 2, [(1,), (2, 3)]),
            ({1: -40.0, 2: -50.0, 3: -60.0, 4: -70.0}, 3, [(1,), (2,), (3, 4)]),
        ],
    )
    def test_exact_ties_go_to_the_smallest_run_starts(self, values, k, want):
        # Every split of these evenly spaced values into k runs has objective
        # exactly 50; the exact solver keeps the one whose run starts are
        # lexicographically smallest, so the strongest runs stay short.
        xs = sorted(values.values(), reverse=True)
        assert _optimal_split_means(xs, k) == [
            sum(values[i] for i in run) / len(run) for run in want
        ]
        result = kmeans_1d(values, k)
        assert [c.ap_ids for c in result.clusters] == want
        assert result.objective_history == (50.0,)

    def test_duplicate_values_share_a_cluster(self):
        values = {1: -42.0, 2: -42.0, 3: -70.0}
        result = kmeans_1d(values, 2)
        members = {frozenset(c.ap_ids) for c in result.clusters}
        assert members == {frozenset({1, 2}), frozenset({3})}


# Inputs on which a K-means pass leaves a cluster empty: top-rank seeds on
# near-ties, and the exact default on near-ties.
EMPTY_CLUSTER_INPUTS = [
    (
        {30: -44.00000000000001, 6: -74.00000000000001, 26: -44.000000000000014,
         3: -41.00000000000001, 29: -44.000000000000014, 13: -43.99999999999999,
         50: -44.000000000000014, 49: -44.00000000000001, 16: -73.99999999999999,
         19: -41.00000000000001},
        6,
        True,
    ),
    (
        {32: -59.9999999999998, 18: -59.9999999999998, 4: -78.0, 33: -59.9999999999997,
         47: -60.0000000000003, 2: -31.0000000000003, 12: -77.9999999999997,
         10: -30.9999999999997, 31: -78.0000000000001, 13: -78.0000000000001,
         52: -60.0000000000002},
        7,
        False,
    ),
]


class TestKmeansErrors:
    @pytest.mark.parametrize(
        "values, k, top_ranks", EMPTY_CLUSTER_INPUTS, ids=["top-rank", "exact"]
    )
    def test_empty_cluster_is_a_value_error(self, values, k, top_ranks):
        with pytest.raises(ValueError, match=rf"K-means left clusters \[4\] of {k} empty"):
            kmeans_1d(values, k, top_ranks)

    def test_too_few_distinct_values_is_degenerate(self):
        with pytest.raises(DegenerateClusteringError, match="only 1 distinct"):
            kmeans_1d({1: -40.0, 2: -40.0, 3: -40.0}, 2)

    def test_max_k_reports_the_feasible_ceiling(self):
        with pytest.raises(DegenerateClusteringError, match="only 3 distinct"):
            kmeans_1d({1: -40.0, 2: -45.0, 3: -45.0, 4: -51.0}, 4)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k"):
            kmeans_1d({1: -40.0, 2: -50.0}, 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no RSS values"):
            kmeans_1d({}, 1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("top_ranks", [False, True], ids=["exact", "top-rank"])
    def test_non_finite_values_rejected(self, bad, top_ranks):
        with pytest.raises(ValueError, match="finite"):
            kmeans_1d({1: -40.0, 2: bad, 3: -60.0}, 2, top_ranks=top_ranks)

    @pytest.mark.parametrize("top_ranks", [False, True], ids=["exact", "top-rank"])
    def test_values_whose_squares_overflow_rejected(self, top_ranks):
        # finite, but sums and squares of such values overflow to inf
        with pytest.raises(ValueError, match="too large"):
            kmeans_1d({1: 1e200, 2: -40.0, 3: -60.0}, 2, top_ranks=top_ranks)
        with pytest.raises(ValueError, match="too large"):
            kmeans_1d({1: 1e308, 2: 1e308, 3: -78.5}, 2, top_ranks=top_ranks)


class TestKmeansProperties:
    @pytest.mark.parametrize("seed", [3, 17, 251])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_clusters_are_contiguous_in_value(self, seed, k):
        # 1-D optimal and Lloyd-stable clusterings never interleave: sort the
        # values and each cluster must occupy a consecutive span.
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(k + 1, 10))
            vals = np.round(rng.uniform(-90, -30, size=n), 1)
            values = {i + 1: float(v) for i, v in enumerate(vals)}
            if len(set(values.values())) < k:
                continue
            result = kmeans_1d(values, k)
            order = sorted(values, key=lambda i: (-values[i], i))
            spans = []
            for c in result.clusters:
                pos = sorted(order.index(i) for i in c.ap_ids)
                spans.append((pos[0], pos[-1], len(pos)))
                assert pos[-1] - pos[0] == len(pos) - 1
            spans.sort()
            assert spans[0][0] == 0 and spans[-1][1] == len(order) - 1

    @pytest.mark.parametrize("seed", [9, 40])
    def test_objective_history_is_monotone_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(80):
            n = int(rng.integers(5, 12))
            values = {
                i + 1: float(v)
                for i, v in enumerate(rng.uniform(-95, -30, size=n))
            }
            k = int(rng.integers(2, min(5, n)))
            result = kmeans_1d(values, k)
            hist = result.objective_history
            assert len(hist) >= 1
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            assert result.iterations <= 100

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        values = {i + 1: float(v) for i, v in enumerate(rng.uniform(-90, -35, 8))}
        shifted = {i: v + 7.25 for i, v in values.items()}
        a = kmeans_1d(values, 3)
        b = kmeans_1d(shifted, 3)
        assert [c.ap_ids for c in a.clusters] == [c.ap_ids for c in b.clusters]
        for ca, cb in zip(a.clusters, b.clusters):
            assert cb.centroid == pytest.approx(ca.centroid + 7.25)

    def test_relabeling_ap_ids_preserves_partition(self):
        values = {1: -31.0, 2: -44.0, 3: -59.0, 4: -62.0, 5: -77.0}
        mapping = {1: 9, 2: 3, 3: 14, 4: 6, 5: 21}
        renamed = {mapping[i]: v for i, v in values.items()}
        a = kmeans_1d(values, 2)
        b = kmeans_1d(renamed, 2)
        got = [tuple(mapping[i] for i in c.ap_ids) for c in a.clusters]
        assert got == [c.ap_ids for c in b.clusters]

    def test_top_rank_seeding_agrees_with_the_exact_default_on_clear_tiers(self):
        """On well-separated tiers Lloyd from the top ranks reaches the
        same (optimal) partition as the exact default."""
        values = {1: -30.0, 2: -33.0, 3: -36.0, 4: -80.0}
        default = kmeans_1d(values, 2)
        explicit = kmeans_1d(values, 2, top_ranks=True)
        assert [c.members for c in default.clusters] == [
            c.members for c in explicit.clusters
        ]

    def test_exact_default_escapes_top_rank_local_optimum(self):
        # Three RSS tiers: the exact default finds them, while Lloyd from the
        # 3 strongest values splits the near tier and cannot merge it back.
        # The localizer keeps the top-rank clustering.
        values = {1: -38.0, 2: -41.0, 3: -55.0, 4: -57.0, 5: -58.5, 6: -76.0, 7: -79.0}
        exact = kmeans_1d(values, 3)
        top = kmeans_1d(values, 3, top_ranks=True)
        assert [c.ap_ids for c in exact.clusters] == [(1, 2), (3, 4, 5), (6, 7)]
        assert exact.iterations == 1
        assert [c.ap_ids for c in top.clusters] == [(1,), (2,), (3, 4, 5, 6, 7)]
        assert exact.objective < top.objective


class TestCandidateSets:
    def test_worked_example_with_two_way_weak_cluster(self):
        # Singleton clusters fix APs 3, 6, 2; the two-member cluster {1, 7}
        # yields two candidates, the stronger member (AP 1) tried first.
        values = {1: -50.0, 2: -58.0, 3: -30.0, 6: -40.0, 7: -52.0}
        picks = candidate_picks(_clustering_of(values, [[3], [6], [1, 7], [2]]))
        assert [tuple(sorted(p)) for p in picks] == [(1, 2, 3, 6), (2, 3, 6, 7)]

    def test_singleton_clusters_give_one_candidate(self):
        values = {4: -31.0, 9: -47.0, 2: -63.0}
        picks = list(candidate_picks(_clustering_of(values, [[4], [9], [2]])))
        assert picks == [(4, 9, 2)]
        assert tuple(sorted(picks[0])) == (2, 4, 9)

    def test_candidate_count_is_product_of_cluster_sizes(self):
        values = {i: float(-30 - i) for i in range(1, 9)}
        picks = candidate_picks(_clustering_of(values, [[1, 2], [3, 4, 5], [6], [7, 8]]))
        assert len(list(picks)) == 2 * 3 * 1 * 2

    def test_enumeration_order_prefers_stronger_members(self):
        values = {1: -30.0, 2: -35.0, 3: -60.0, 4: -65.0}
        picks = list(candidate_picks(_clustering_of(values, [[1, 2], [3, 4]])))
        assert [tuple(sorted(p)) for p in picks] == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert picks == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_candidates_cover_every_combination_exactly_once(self):
        values = {i: float(-28 - 3 * i) for i in range(1, 7)}
        picks = candidate_picks(_clustering_of(values, [[1, 2, 3], [4, 5], [6]]))
        seen = [tuple(sorted(p)) for p in picks]
        expect = {
            tuple(sorted(combo))
            for combo in itertools.product([1, 2, 3], [4, 5], [6])
        }
        assert len(seen) == len(set(seen)) == len(expect)
        assert set(seen) == expect

    def test_end_to_end_from_kmeans(self):
        values = {1: -30.0, 2: -32.0, 3: -60.0, 4: -62.0}
        picks = candidate_picks(kmeans_1d(values, 2))
        assert [tuple(sorted(p)) for p in picks] == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_walk_is_lazy(self):
        # 10 clusters of 10 members make 10**10 candidates; the first two
        # come at once, so none of the rest is built.
        values = {i: -30.0 - i for i in range(100)}
        groups = [list(range(c * 10, c * 10 + 10)) for c in range(10)]
        picks = candidate_picks(_clustering_of(values, groups))
        assert next(picks) == tuple(range(0, 100, 10))
        assert next(picks) == tuple(range(0, 90, 10)) + (91,)


def _clustering_of(values, groups):
    """Build a Clustering whose clusters contain the given id groups."""
    from apseq.selection import Cluster, Clustering

    clusters = []
    for group in groups:
        ordered = tuple(sorted(group, key=lambda i: (-values[i], i)))
        centroid = float(np.mean([values[i] for i in group]))
        clusters.append(
            Cluster(
                members=tuple((i, values[i]) for i in ordered),
                centroid=centroid,
            )
        )
    clusters.sort(key=lambda c: -c.centroid)
    return Clustering(
        clusters=tuple(clusters),
        iterations=1,
        objective_history=(0.0,),
    )


# ---------------------------------------------------------------------------
# The Lloyd loop that assigned each value to its nearest centroid one by one,
# kept (less its docstring, with its seeding narrowed to kmeans_1d's two) as
# the reference for the run-based loop in kmeans_1d.

def _lloyd_oracle(values: Mapping[int, float], k: int, top_ranks: bool = False) -> Clustering:
    if k < 1:
        raise ValueError("k must be at least 1")
    if not values:
        raise ValueError("no RSS values to cluster")
    if not all(map(math.isfinite, values.values())):
        raise ValueError("RSS values to cluster must be finite")
    # Every sum below, and its square, is at most (n * 2 * max|v|)**2.
    bound = len(values) * 2.0 * max(map(abs, values.values()))
    if not math.isfinite(bound * bound):
        raise ValueError("RSS values to cluster are too large")
    ids = sorted(values, key=lambda i: (-values[i], i))
    xs = [values[i] for i in ids]
    distinct = sorted(set(xs), reverse=True)
    if len(distinct) < k:
        raise DegenerateClusteringError(k, len(distinct))
    if top_ranks:
        centroids = distinct[:k]
    else:
        centroids = _optimal_split_means(xs, k)

    def assign(cents: list[float]) -> list[int]:
        # Nearest centroid; ties go to the stronger (higher-RSS) centroid,
        # which is the earlier index since cents stay sorted descending.
        out = []
        for x in xs:
            best, best_d = 0, abs(x - cents[0])
            for c in range(1, len(cents)):
                d = abs(x - cents[c])
                if d < best_d:
                    best, best_d = c, d
            out.append(best)
        return out

    assignment = assign(centroids)
    history: list[float] = []
    iterations = 1
    while True:
        centroids = []
        for c in range(k):
            member_xs = [x for x, a in zip(xs, assignment) if a == c]
            assert member_xs, "empty cluster cannot arise from value or split-mean seeds"
            centroids.append(sum(member_xs) / len(member_xs))
        history.append(
            sum((x - centroids[a]) ** 2 for x, a in zip(xs, assignment))
        )
        if iterations >= MAX_ITERATIONS:
            break
        new_assignment = assign(centroids)
        if new_assignment == assignment:
            break
        assignment = new_assignment
        iterations += 1

    clusters = []
    for c in range(k):
        members = tuple(
            (i, values[i]) for i, a in zip(ids, assignment) if a == c
        )
        clusters.append(Cluster(members=members, centroid=centroids[c]))
    return Clustering(
        clusters=tuple(clusters),
        iterations=iterations,
        objective_history=tuple(history),
    )


def _draw_clustering_input(rng):
    """Values with duplicates and near-ties, a feasible k, and a seeding."""
    n = rng.randint(1, 14)
    kind = rng.randrange(5)
    if kind == 0:  # whole dBm: many duplicates
        xs = [float(rng.randint(-95, -30)) for _ in range(n)]
    elif kind == 1:
        xs = [rng.uniform(-95, -30) for _ in range(n)]
    elif kind == 2:  # whole dBm with near-ties of 5e-15
        xs = [rng.randint(-95, -30) + rng.randint(-2, 2) * 5e-15 for _ in range(n)]
    elif kind == 3:  # four levels with near-ties of 1e-13
        levels = [rng.uniform(-95, -30) for _ in range(4)]
        xs = [rng.choice(levels) + rng.randint(-2, 2) * 1e-13 for _ in range(n)]
    else:  # three levels, each a cloud of near-ties
        levels = [float(rng.randint(-95, -30)) for _ in range(3)]
        tie = rng.choice([5e-15, 1e-13])
        xs = [rng.choice(levels) + rng.randint(-3, 3) * tie for _ in range(n)]
    values = dict(zip(rng.sample(range(1, 60), n), xs))
    distinct = len(set(xs))
    k = rng.randint(1, distinct)
    top_ranks = rng.random() >= 0.4
    return values, k, top_ranks


def _outcome(fn, values, k, top_ranks):
    try:
        return repr(fn(values, k, top_ranks))  # repr tells -0.0 from 0.0
    except (ValueError, AssertionError) as exc:
        # First line only: pytest appends its own lines to a failed assert.
        message = str(exc).splitlines()[0]
        # The oracle asserts that no cluster is empty, where kmeans_1d raises
        # a ValueError naming the empty clusters: one outcome.
        if isinstance(exc, AssertionError) and message.startswith("empty cluster"):
            return "empty cluster"
        if isinstance(exc, ValueError) and message.startswith("K-means left clusters"):
            return "empty cluster"
        return f"{type(exc).__name__}: {message}"


def test_run_based_kmeans_matches_the_lloyd_oracle():
    """Same members, centroids, iterations and objective history.

    The oracle breaks ties by centroid index.  When two centroids lie within
    a few ulps of each other, the rounded distances of a weaker value to both
    can tie, and the oracle puts that value on the stronger centroid although
    a stronger value already sits on the weaker one: its clusters stop being
    runs and can come out of strongest-first order.  The run-based loop keeps
    the runs there, so it may differ on such near-tie inputs, and only there.
    """
    rng = random.Random(20_000)
    differ = []
    cases = 20_000
    for _ in range(cases):
        values, k, top_ranks = _draw_clustering_input(rng)
        want = _outcome(_lloyd_oracle, values, k, top_ranks)
        got = _outcome(kmeans_1d, values, k, top_ranks)
        if got != want:
            differ.append((values, k, top_ranks))
    for values, k, top_ranks in differ:
        xs = sorted(set(values.values()))
        assert min(b - a for a, b in zip(xs, xs[1:])) < 1e-12, (values, k, top_ranks)
        result = kmeans_1d(values, k, top_ranks)
        order = sorted(values, key=lambda i: (-values[i], i))
        assert [i for c in result.clusters for i in c.ap_ids] == order
    assert len(differ) <= cases // 2000, differ
