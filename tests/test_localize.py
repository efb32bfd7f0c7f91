"""Window aggregation, signature matching, and the localization pipeline."""

import itertools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq.localize import (
    Estimate,
    MissedDetection,
    ScanWindow,
    aggregate_heads,
    aggregate_scan,
    instant_count,
    load_scan,
    localize,
    save_scan,
    scan_from_text,
    scan_to_text,
)
from apseq.mapgen import build_map_store, build_stores
from apseq.model import UNDETECTED_DBM, ApDeployment, RssScan, load_deployment
from apseq.selection import kmeans_1d


def window_of(samples, duration_s=10.0, cadence_s=1.0):
    """Shorthand: samples is ap_id -> list of rss values at times 0, 1, 2, ..."""
    n = max(map(len, samples.values()))
    rss = np.full((n, len(samples)), np.nan)
    for j, series in enumerate(samples.values()):
        rss[: len(series), j] = series
    return ScanWindow(np.arange(float(n)), tuple(samples), rss, duration_s, cadence_s)


class TestScanWindow:
    def test_instant_count(self):
        w = window_of({1: [-40.0]}, duration_s=60.0, cadence_s=0.3)
        assert instant_count(w.duration_s, w.cadence_s) == 200

    def test_schedule_with_an_unbounded_instant_count_is_refused(self):
        # 1e308 / 0.5 overflows to inf: a ValueError, not an OverflowError from int().
        with pytest.raises(ValueError, match="malformed window line 'window 1e308 0.5'"):
            scan_from_text("APSEQ-SCAN v2\nwindow 1e308 0.5\nsample 0.000 1 -40.000000\n")
        with pytest.raises(ValueError, match="finite ratio"):
            window_of({1: [-40.0]}, duration_s=1e308, cadence_s=0.5)

    def test_single_instant_floor(self):
        w = window_of({1: [-40.0]}, duration_s=0.5, cadence_s=0.5)
        assert instant_count(w.duration_s, w.cadence_s) == 1

    def test_timestamps_must_not_decrease(self):
        # Per AP: AP 2 at 0.5 after AP 1 at 1.0 is in order.
        text = "APSEQ-SCAN v2\nwindow 2.0 1.0\nsample 1.0 1 -40.0\nsample 0.5 2 -50.0\n"
        assert scan_from_text(text).times.tolist() == [0.5, 1.0]
        # The first out-of-order line names its AP; a malformed line, even a
        # later one, wins over the order error.
        text += "sample 1.5 2 -51.0\nsample 0.2 2 -52.0\nsample 0.5 1 -41.0\n"
        with pytest.raises(ValueError, match=r"^<string>: timestamps for AP 2 are not non-decreasing$"):
            scan_from_text(text)
        with pytest.raises(ValueError, match="malformed sample line 'sample 0.0 1'"):
            scan_from_text(text + "sample 0.0 1\n")

    @pytest.mark.parametrize(
        "duration, cadence",
        [
            (0.0, 1.0),
            (-3.0, 1.0),
            (10.0, 0.0),
            (10.0, -1.0),
            (10.0, 11.0),
            (float("inf"), 1.0),
            (float("nan"), 1.0),
        ],
    )
    def test_schedule_validation(self, duration, cadence):
        with pytest.raises(ValueError, match="finite ratio"):
            ScanWindow((0.0,), (1,), [[-40.0]], duration_s=duration, cadence_s=cadence)
        with pytest.raises(ValueError, match="malformed window line"):
            scan_from_text(f"APSEQ-SCAN v2\nwindow {duration} {cadence}\nsample 0.0 1 -40.0\n")

    def test_series_share_instant_rows(self):
        # AP 1 is sampled twice at 2.0, so 2.0 gets two rows; the columns
        # follow the order in which the APs first appear.
        w = scan_from_text(
            "APSEQ-SCAN v2\nwindow 3.0 1.0\nsample 0.0 3 -40.0\n"
            "sample 2.0 1 -60.0\nsample 2.0 1 -61.0\nsample 2.0 3 -41.0\n"
        )
        assert w.times.tolist() == [0.0, 2.0, 2.0]
        assert w.ap_ids == (3, 1)
        np.testing.assert_array_equal(
            w.rss, [[-40.0, math.nan], [-41.0, -60.0], [math.nan, -61.0]]
        )
        assert dict(w.aps) == {3: ((0.0, -40.0), (2.0, -41.0)), 1: ((2.0, -60.0), (2.0, -61.0))}
        with pytest.raises(ValueError):
            w.rss[0, 0] = -1.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"times": [0.0, 1.0], "ap_ids": (1,), "rss": [[-40.0]]}, "shape"),
            ({"times": [0.0], "ap_ids": (1, 1), "rss": [[-40.0, -41.0]]}, "duplicate ap_id"),
            ({"times": [1.0, 0.5], "ap_ids": (1,), "rss": [[-40.0], [-41.0]]}, "non-decreasing"),
            ({"times": [0.0, math.nan], "ap_ids": (1,), "rss": [[-40.0], [-41.0]]}, "finite"),
        ],
    )
    def test_matrix_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScanWindow(**kwargs, duration_s=2.0, cadence_s=1.0)

    def test_nan_sample_rejected(self):
        # In the matrix NaN marks an unheard instant; a file may not write one.
        with pytest.raises(ValueError, match="malformed sample line 'sample 1.0 1 nan'"):
            scan_from_text("APSEQ-SCAN v2\nwindow 2.0 1.0\nsample 0.0 1 -40.0\nsample 1.0 1 nan\n")


class TestAggregation:
    def test_mean_of_samples(self):
        w = window_of({1: [-40.0, -42.0, -44.0], 2: [-60.0, -62.0]})
        scan = aggregate_scan(w)
        assert scan.values[1] == pytest.approx(-42.0)
        assert scan.values[2] == pytest.approx(-61.0)

    def test_sparse_ap_becomes_undetected(self):
        # 20 instants; 1 sample is below the 10% detection threshold.
        w = window_of(
            {1: [-40.0] * 20, 2: [-70.0]}, duration_s=20.0, cadence_s=1.0
        )
        scan = aggregate_scan(w)
        assert scan.values[2] == UNDETECTED_DBM
        assert set(scan.detected()) == {1}

    def test_threshold_is_strict(self):
        # exactly 10% of 20 instants (2 samples) still counts as detected
        w = window_of(
            {1: [-40.0] * 20, 2: [-70.0, -71.0]}, duration_s=20.0, cadence_s=1.0
        )
        assert set(aggregate_scan(w).detected()) == {1, 2}

    def test_negative_zero_mean_is_zero(self):
        # A left-to-right sum starts from 0, and 0 + -0.0 is 0.0.
        w = window_of({1: [-0.0, -0.0], 2: [-40.0, -40.0]}, duration_s=2.0, cadence_s=1.0)
        assert math.copysign(1.0, aggregate_scan(w).values[1]) == 1.0

    def test_all_sparse_raises_no_signal(self):
        w = window_of({1: [-40.0], 2: [-50.0]}, duration_s=20.0, cadence_s=1.0)
        with pytest.raises(ValueError, match="no signal"):
            aggregate_scan(w)


def head_oracle(window, duration_s=None):
    """aggregate_scan(window, duration_s) in pure Python: per AP, the mean of
    its samples in the first instant_count(duration_s) rows (every row when
    duration_s is None), summed left to right, and the sentinel for an AP
    heard in fewer than 10 % of those instants."""
    d = window.duration_s if duration_s is None else duration_s
    if d > window.duration_s:
        raise ValueError(f"{d} s exceeds the window's {window.duration_s} s")
    n = instant_count(d, window.cadence_s)
    rows = window.rss.tolist() if duration_s is None else window.rss.tolist()[:n]
    values, heard = {}, False
    for j, ap_id in enumerate(window.ap_ids):
        samples = [row[j] for row in rows if not math.isnan(row[j])]
        total = 0.0
        for v in samples:
            total += v
        if len(samples) >= 0.10 * n:
            values[ap_id], heard = total / len(samples), True
        else:
            values[ap_id] = UNDETECTED_DBM
    if not heard:
        raise ValueError("no signal")
    return RssScan(values=values)


def bits_or_error(aggregate, *args):
    """The scan's values as float.hex, sentinel included, or the ValueError message."""
    try:
        return {ap_id: float.hex(v) for ap_id, v in aggregate(*args).values.items()}
    except ValueError as exc:
        return str(exc)


@st.composite
def head_windows(draw):
    """Windows with unheard, sparse and dense columns, -0.0 and whole-dBm
    samples, and rows fewer or more (repeated timestamps) than instants."""
    cadence = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    instants = draw(st.integers(1, 30))
    times = sorted(draw(st.lists(st.integers(0, instants - 1), max_size=2 * instants)))
    ap_ids = draw(st.lists(st.integers(1, 50), max_size=5, unique=True))
    samples = st.one_of(st.just(-0.0), st.integers(-100, 0).map(float), st.floats(-100.0, 0.0))
    rss = np.full((len(times), len(ap_ids)), np.nan)
    for j in range(len(ap_ids)):
        kind = draw(st.sampled_from(["unheard", "sparse", "dense"]))
        for r in range(len(times)):
            if kind == "dense" or (kind == "sparse" and draw(st.integers(0, 9)) == 0):
                rss[r, j] = draw(samples)
    return ScanWindow(np.array(times) * cadence, tuple(ap_ids), rss, instants * cadence, cadence)


@settings(database=None, deadline=None, max_examples=300)
@given(head_windows(), st.data())
def test_every_head_is_the_pure_python_mean_bit_for_bit(window, data):
    cadence = window.cadence_s
    durations = data.draw(st.lists(
        st.integers(1, 70).map(lambda m: m * cadence) | st.floats(cadence, 2.0 * window.duration_s),
        min_size=1, max_size=6,
    ))
    head = aggregate_heads(window, max(durations))
    for d in durations:
        want = bits_or_error(head_oracle, window, d)
        assert bits_or_error(head, d) == want
        assert bits_or_error(aggregate_scan, window, d) == want
    assert bits_or_error(aggregate_scan, window) == bits_or_error(head_oracle, window)
    assert bits_or_error(aggregate_heads(window), None) == bits_or_error(head_oracle, window)


def test_a_head_beyond_the_aggregated_rows_is_refused():
    w = window_of({1: [-40.0] * 10}, duration_s=10.0, cadence_s=1.0)
    head = aggregate_heads(w, 4.0)
    assert head(4.0) == aggregate_scan(w, 4.0)
    with pytest.raises(ValueError, match="5.0 s exceeds the window's 4.0 s"):
        head(5.0)


@pytest.fixture(scope="module")
def half_plane_store():
    dep = ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 10.0, 0.0)))
    return build_map_store(dep, 2, 1.0)


@pytest.fixture(scope="module")
def collinear_store():
    dep = ApDeployment(
        width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0))
    )
    return build_map_store(dep, 3, 1.0)


@pytest.fixture(scope="module")
def fallback_store():
    # Three collinear APs plus one just off the line: orderings that put the
    # middle AP (2) last within subset (1, 2, 3) are geometrically impossible,
    # so candidates over that subset can miss while (1, 2, 4) still matches.
    dep = ApDeployment(
        width=10.0,
        height=10.0,
        aps=((1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0), (4, 5.0, 3.0)),
    )
    return build_map_store(dep, 3, 0.5)


class TestLocalize:
    def test_half_plane_estimate(self, half_plane_store):
        scan = RssScan(values={1: -40.0, 2: -55.0})
        result = localize(scan, {2: half_plane_store}, 2)
        assert isinstance(result, Estimate)
        assert result.position == (2.5, 5.0)
        assert result.matched_signature == (1, 2)
        assert result.subset == (1, 2)
        assert result.candidates_tried == 1

    def test_reversed_order_lands_in_the_other_half(self, half_plane_store):
        scan = RssScan(values={1: -55.0, 2: -40.0})
        result = localize(scan, {2: half_plane_store}, 2)
        assert result.position == (7.5, 5.0)
        assert result.matched_signature == (2, 1)

    def test_impossible_order_is_a_missed_detection(self, collinear_store):
        # RSS order 1 > 3 > 2 puts the middle AP last: no region anywhere.
        scan = RssScan(values={1: -30.0, 2: -50.0, 3: -40.0})
        result = localize(scan, {3: collinear_store}, 3)
        assert isinstance(result, MissedDetection)
        assert result.candidates_tried == 1

    def test_fallback_candidate_rescues_the_estimate(self, fallback_store):
        # Values cluster as {1}, {3, 4}, {2}; first candidate (1,2,3) yields
        # the impossible order 1-3-2, the second (1,2,4) matches 1-4-2.
        scan = RssScan(values={1: -30.0, 2: -70.0, 3: -50.0, 4: -52.0})
        result = localize(scan, {3: fallback_store}, 3)
        assert isinstance(result, Estimate)
        assert result.candidates_tried == 2
        assert result.subset == (1, 2, 4)
        assert result.matched_signature == (1, 4, 2)

    def test_clustering_seeds_at_the_top_ranks(self):
        # The demo's seven-AP scan: top-rank Lloyd clusters it {1}, {2},
        # {3..7}, so the first candidate is (1, 2, 3); the exact optimum
        # {1, 2}, {3, 4, 5}, {6, 7} would try (1, 3, 6) first, which also
        # matches on dover.  Outcomes are pinned to the top-rank clustering.
        dep = load_deployment(str(resources.files("apseq") / "data" / "dover.deploy"))
        store = build_map_store(dep, 3, 1.0)
        values = {1: -38.0, 2: -41.0, 3: -55.0, 4: -57.0, 5: -58.5, 6: -76.0, 7: -79.0}
        result = localize(RssScan(values=values), {3: store}, 3)
        assert isinstance(result, Estimate)
        assert result.subset == (1, 2, 3)
        assert result.matched_signature == (1, 2, 3)
        assert result.candidates_tried == 1
        assert result.position == store.maps[(1, 2, 3)].regions[(1, 2, 3)].centroid

    def test_empty_cluster_is_a_value_error(self):
        # Near-tie RSS values on which a top-rank Lloyd pass leaves a cluster
        # empty: localize raises ValueError, not AssertionError.
        values = {
            30: -44.00000000000001, 6: -74.00000000000001, 26: -44.000000000000014,
            3: -41.00000000000001, 29: -44.000000000000014, 13: -43.99999999999999,
            50: -44.000000000000014, 49: -44.00000000000001, 16: -73.99999999999999,
            19: -41.00000000000001,
        }
        dep = ApDeployment(
            width=10.0, height=10.0,
            aps=tuple((ap_id, float(n % 4) * 3.0, float(n // 4) * 3.0) for n, ap_id in enumerate(values)),
        )
        store = build_map_store(dep, 6, 2.5)
        with pytest.raises(ValueError, match=r"K-means left clusters \[4\] of 6 empty"):
            localize(RssScan(values=values), {6: store}, 6)

    @pytest.mark.parametrize("foreign_rss", [-20.0, -45.0, -51.0, -90.0])
    def test_ap_outside_the_deployment_is_ignored(self, fallback_store, foreign_rss):
        values = {1: -30.0, 2: -70.0, 3: -50.0, 4: -52.0}
        heard = RssScan(values={**values, 99: foreign_rss})
        assert localize(heard, {3: fallback_store}, 3) == localize(RssScan(values=values), {3: fallback_store}, 3)

    def test_estimate_carries_region_stats(self, half_plane_store):
        scan = RssScan(values={1: -40.0, 2: -55.0})
        result = localize(scan, {2: half_plane_store}, 2)
        region = half_plane_store.maps[(1, 2)].regions[(1, 2)]
        assert result.region_accuracy == region.accuracy
        assert result.region_radius == region.radius


@pytest.fixture(scope="module")
def store_family():
    dep = ApDeployment(
        width=10.0,
        height=10.0,
        aps=((1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0), (4, 5.0, 3.0)),
    )
    return build_stores(dep, (2, 3, 4), 1.0)


class TestKDegradation:
    def test_fewer_detected_aps_shrink_k(self, store_family):
        scan = RssScan(values={1: -35.0, 2: -45.0, 4: UNDETECTED_DBM})
        result = localize(scan, store_family, 4)
        assert isinstance(result, Estimate)
        assert len(result.subset) == 2

    def test_aps_outside_the_deployment_do_not_count_toward_k(self, store_family):
        scan = RssScan(values={1: -35.0, 2: -45.0, 98: -40.0, 99: -50.0})
        result = localize(scan, store_family, 4)
        assert result == localize(RssScan(values={1: -35.0, 2: -45.0}), store_family, 4)
        assert len(result.subset) == 2

    def test_duplicate_values_shrink_k(self, store_family):
        scan = RssScan(values={1: -35.0, 2: -45.0, 3: -45.0, 4: -60.0})
        result = localize(scan, store_family, 4)
        assert len(result.subset) == 3

    def test_missing_degraded_store_is_an_error(self, store_family):
        scan = RssScan(values={1: -35.0, 2: -45.0})
        with pytest.raises(ValueError, match=r"store/k mismatch \(no store for k=2\)$"):
            localize(scan, {3: store_family[3]}, 3)

    def test_one_detected_ap_is_insufficient(self, store_family):
        scan = RssScan(values={1: -35.0, 2: UNDETECTED_DBM})
        with pytest.raises(ValueError, match="insufficient APs"):
            localize(scan, store_family, 4)

    def test_all_equal_values_are_insufficient(self, store_family):
        scan = RssScan(values={1: -40.0, 2: -40.0, 3: -40.0})
        with pytest.raises(ValueError, match="insufficient APs"):
            localize(scan, store_family, 3)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_k_below_two_is_refused_before_the_scan_is_judged(self, store_family, k):
        # One detected AP: at any k >= 2 this scan has insufficient APs.
        scan = RssScan(values={1: -35.0, 2: UNDETECTED_DBM})
        with pytest.raises(ValueError, match=rf"^k must be at least 2 \(got {k}\)$"):
            localize(scan, store_family, k)


def localize_oracle(scan, stores, k):
    """localize as one function: the known-AP filter, kmeans_1d with
    top_ranks, and the first hit in the product of the clusters, each
    strongest first: spelled out here, not taken from the code under test."""
    detected = scan.detected()
    if stores:
        known = next(iter(stores.values())).deployment.ap_id_set
        detected = {i: v for i, v in detected.items() if i in known}
    k_eff = min(k, len(set(detected.values())))
    if k_eff < 2:
        raise ValueError("insufficient APs")
    if k_eff not in stores:
        raise ValueError(f"store/k mismatch (no store for k={k_eff})")
    clustering = kmeans_1d(detected, k_eff, top_ranks=True)
    for tried, picks in enumerate(itertools.product(*(cl.ap_ids for cl in clustering.clusters)), 1):
        subset = tuple(sorted(picks))
        region = stores[k_eff].maps[subset].regions.get(picks)
        if region is not None:
            return Estimate(region.centroid, picks, subset, region.accuracy, region.radius, tried)
    return MissedDetection(candidates_tried=tried)


def outcome_or_error(locator, *args):
    try:
        return locator(*args)
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def six_ap_family():
    dep = ApDeployment(
        width=12.0,
        height=10.0,
        aps=((1, 0.5, 0.5), (2, 11.0, 1.0), (3, 6.0, 9.5), (4, 1.0, 8.0), (5, 10.5, 9.0), (6, 6.5, 4.0)),
    )
    return build_stores(dep, range(2, 7), 1.0)


# The sentinel, values whose sums or squares overflow, near-ties a few ulps
# apart (which can leave a Lloyd cluster empty), a small pool of values that
# tie, and any float at all.
scan_values = st.one_of(
    st.sampled_from([UNDETECTED_DBM, 1e308, -1e308, 1e154, math.inf, -math.inf, math.nan]),
    st.sampled_from([-44.00000000000001, -44.000000000000014, -43.99999999999999, -41.00000000000001]),
    st.sampled_from([-40.0, -45.0, -50.0, -55.5, -60.0, -71.0]),
    st.floats(-100.0, -20.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(database=None, deadline=None, max_examples=400)
@given(
    st.dictionaries(st.integers(1, 9), scan_values, max_size=9),
    st.integers(2, 8),
    st.sets(st.integers(2, 6)),
)
def test_localize_is_the_one_function_oracle(six_ap_family, values, k, family_ks):
    # Ids 7-9 are foreign to the deployment; family_ks leaves some k without a store.
    stores = {kk: six_ap_family[kk] for kk in sorted(family_ks)}
    scan = RssScan(values=values)
    assert outcome_or_error(localize, scan, stores, k) == outcome_or_error(localize_oracle, scan, stores, k)


class TestScanFiles:
    def test_round_trip_preserves_series(self, tmp_path):
        w = window_of(
            {3: [-41.5, -42.25], 1: [-60.125, -61.0]},
            duration_s=2.0,
            cadence_s=1.0,
        )
        path = tmp_path / "scan.txt"
        save_scan(w, path)
        loaded = load_scan(path)
        assert set(loaded.aps) == {1, 3}
        for ap_id in (1, 3):
            got = loaded.aps[ap_id]
            want = w.aps[ap_id]
            assert len(got) == len(want)
            for (gt, gr), (wt, wr) in zip(got, want):
                assert gt == pytest.approx(wt, abs=1e-3)
                assert gr == pytest.approx(wr, abs=1e-6)

    def test_schedule_recovered_from_timestamps(self, tmp_path):
        w = window_of({1: [-40.0] * 5, 2: [-50.0] * 5}, duration_s=5.0, cadence_s=1.0)
        path = tmp_path / "scan.txt"
        save_scan(w, path)
        loaded = load_scan(path)
        assert loaded.cadence_s == pytest.approx(1.0)
        assert instant_count(loaded.duration_s, loaded.cadence_s) == 5

    def test_aggregation_unchanged_by_round_trip(self, tmp_path):
        w = window_of(
            {1: [-40.0, -42.0, -44.0, -40.5, -41.5], 2: [-61.0, -63.0, -59.0, -60.0, -62.0]},
            duration_s=5.0,
            cadence_s=1.0,
        )
        path = tmp_path / "scan.txt"
        save_scan(w, path)
        before = aggregate_scan(w)
        after = aggregate_scan(load_scan(path))
        for ap_id in before.values:
            assert after.values[ap_id] == pytest.approx(before.values[ap_id], abs=1e-6)

    def test_samples_written_in_time_order(self):
        w = window_of({2: [-50.0, -51.0], 1: [-40.0, -41.0]}, duration_s=2.0, cadence_s=1.0)
        lines = scan_to_text(w).splitlines()
        assert lines[:2] == ["APSEQ-SCAN v2", "window 2.0 1.0"]
        assert lines[2:] == [
            "sample 0.000 1 -40.000000",
            "sample 0.000 2 -50.000000",
            "sample 1.000 1 -41.000000",
            "sample 1.000 2 -51.000000",
        ]

    def test_round_trip_keeps_the_schedule(self):
        # 20 instants: AP 2, heard once, is under the 10% detection bar.
        w = ScanWindow((0.0, 1.0), (1, 2), [[-40.0, math.nan], [-41.0, -60.0]], 20.0, 1.0)
        loaded = scan_from_text(scan_to_text(w))
        assert (loaded.duration_s, loaded.cadence_s) == (20.0, 1.0)
        assert aggregate_scan(loaded).values == {1: -40.5, 2: UNDETECTED_DBM}

    def test_v1_schedule_inferred_from_timestamps(self):
        text = "APSEQ-SCAN v1\nsample 0.000 1 -40.0\nsample 1.000 1 -41.0\nsample 1.000 2 -60.0\n"
        loaded = scan_from_text(text)
        assert (loaded.duration_s, loaded.cadence_s) == (2.0, 1.0)
        assert instant_count(loaded.duration_s, loaded.cadence_s) == 2
        assert aggregate_scan(loaded).values == {1: -40.5, 2: -60.0}

    @pytest.mark.parametrize(
        "window_line",
        ["sample 0.0 1 -40.0", "window 2.0", "window x 1.0", "window 1.0 2.0", "window nan 1.0", "span 2.0 1.0"],
    )
    def test_malformed_window_line(self, window_line):
        with pytest.raises(ValueError, match="malformed window line"):
            scan_from_text(f"APSEQ-SCAN v2\n{window_line}\nsample 0.0 1 -40.0\n")

    def test_unsupported_version(self):
        with pytest.raises(ValueError, match="unsupported version"):
            scan_from_text("APSEQ-SCAN v9\nsample 0.0 1 -40.0\n")

    @pytest.mark.parametrize(
        "line",
        [
            "sample 0.0 1",
            "sample 0.0 x -40.0",
            "reading 0.0 1 -40.0",
            "sample 0.000 1 nan",
            "sample 0.000 1 -inf",
            "sample inf 1 -40",
            "sample nan 1 -40",
        ],
    )
    def test_malformed_sample_lines(self, line):
        with pytest.raises(ValueError, match="malformed sample"):
            scan_from_text(f"APSEQ-SCAN v1\n{line}\n")

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            scan_from_text("APSEQ-SCAN v1\n")
