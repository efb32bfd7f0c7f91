"""System-level acceptance checks for the whole localization pipeline.

Each test prints one verdict line (run with -s to see them on success);
checks that need the same expensive simulation sweep share fixtures.
"""

import itertools
import math
import statistics
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from apseq.evaluate import build_stores, load_config, run_experiment, window_sweep
from apseq.localize import Estimate, aggregate_scan, localize
from apseq.mapgen import build_map_store, load_map_store, save_map_store
from apseq.model import ApDeployment, load_deployment
from apseq.propagation import PropagationParams, synth_window
from apseq.selection import kmeans_1d

DATA = resources.files("apseq") / "data"
SEEDS = (1, 2, 3, 4, 5)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def dover():
    return load_deployment(str(DATA / "dover.deploy"))


@pytest.fixture(scope="module")
def dover_config():
    return load_config(str(DATA / "dover.cfg"))


@pytest.fixture(scope="module")
def dover_stores(dover, dover_config):
    return build_stores(dover, dover_config.k_values, dover_config.cell_size)


@pytest.fixture(scope="module")
def dover_sweep(dover_config, dover_stores):
    """Five-seed, 100-point run of the dover scenario at k = 3..7."""
    cfg = replace(dover_config, test_points=100)
    ks = cfg.k_values
    rates = {k: [] for k in ks}
    medians = {k: [] for k in ks}
    t0 = time.perf_counter()
    for seed in SEEDS:
        report = run_experiment(cfg, seed=seed, stores=dover_stores)
        for k in ks:
            rates[k].append(report.per_k[k].missed_rate)
            medians[k].append(report.per_k[k].median_error)
    elapsed = time.perf_counter() - t0
    return (
        {k: statistics.fmean(rates[k]) for k in ks},
        {k: statistics.fmean(medians[k]) for k in ks},
        elapsed,
    )


def test_map_counts_match_subset_combinatorics(dover):
    # Maps are made on lookup: every map is built inside the timed region.
    t0 = time.perf_counter()
    counts = [len(list(build_map_store(dover, k, 1.0).maps.values())) for k in range(2, 8)]
    elapsed = time.perf_counter() - t0
    ok = counts == [21, 35, 35, 21, 7, 1] and elapsed < 1.0
    verdict(ok, "map counts", f"k=2..7 -> {counts} in {elapsed:.3f} s (limit 1 s)")
    assert counts == [21, 35, 35, 21, 7, 1]
    assert elapsed < 1.0


def test_dense_grid_build_performance(dover):
    t0 = time.perf_counter()
    store = build_map_store(dover, 4, 0.2)
    list(store.maps.values())  # maps are made on lookup: build every one inside the timed region
    elapsed = time.perf_counter() - t0
    ok = store.n_maps == 35 and elapsed < 2.0
    verdict(
        ok,
        "build performance",
        f"35 maps at 0.2 m over 60x40 m in {elapsed:.3f} s (limit 2 s)",
    )
    assert store.n_maps == 35
    assert elapsed < 2.0


def test_signatures_match_brute_force_oracle():
    rng = np.random.default_rng(2024)
    aps = tuple(
        (i + 1, float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
        for i in range(5)
    )
    dep = ApDeployment(width=10.0, height=10.0, aps=aps)
    fmap = build_map_store(dep, 5, 0.2).maps[(1, 2, 3, 4, 5)]
    grid = fmap.grid
    assert (grid.cols, grid.rows) == (50, 50)
    mismatches = 0
    for sig in fmap.regions:
        for i, j in fmap.cells_of(sig):
            cx, cy = grid.cell_center(int(i), int(j))
            d = sorted(
                ((cx - x) ** 2 + (cy - y) ** 2, ap_id) for ap_id, x, y in aps
            )
            if tuple(ap_id for _, ap_id in d) != sig:
                mismatches += 1
    verdict(
        mismatches == 0,
        "oracle equivalence",
        f"{mismatches} mismatches over {grid.n_cells} cells (5 APs, seed 2024)",
    )
    assert mismatches == 0


def _bisector_clearance(point, deployment):
    """Distance from a point to the nearest pairwise perpendicular bisector."""
    best = math.inf
    ids = deployment.ap_ids
    for a, b in itertools.combinations(ids, 2):
        ax, ay = deployment.position(a)
        bx, by = deployment.position(b)
        da2 = (point[0] - ax) ** 2 + (point[1] - ay) ** 2
        db2 = (point[0] - bx) ** 2 + (point[1] - by) ** 2
        sep = math.hypot(bx - ax, by - ay)
        best = min(best, abs(da2 - db2) / (2.0 * sep))
    return best


def test_zero_noise_estimates_are_sound(dover, dover_stores):
    t0 = time.perf_counter()
    store = dover_stores[7]
    fmap = store.maps[(1, 2, 3, 4, 5, 6, 7)]
    margin = store.grid.cell_size * math.sqrt(2.0)
    params = PropagationParams(sigma_db=0.0)
    rng = np.random.default_rng(404)
    accepted = 0
    missed = 0
    off_centroid = 0
    over_radius = 0
    while accepted < 500:
        p = (float(rng.uniform(0.0, dover.width)), float(rng.uniform(0.0, dover.height)))
        if _bisector_clearance(p, dover) < margin:
            continue
        accepted += 1
        window = synth_window(p, dover, params, duration_s=0.3, cadence_s=0.3, rng=rng)
        outcome = localize(aggregate_scan(window), dover_stores, 7)
        if not isinstance(outcome, Estimate):
            missed += 1
            continue
        region = fmap.region_at(p[0], p[1])
        if outcome.position != region.centroid:
            off_centroid += 1
        err = math.hypot(outcome.position[0] - p[0], outcome.position[1] - p[1])
        if err > region.radius:
            over_radius += 1
    elapsed = time.perf_counter() - t0
    ok = missed == 0 and off_centroid == 0 and over_radius == 0 and elapsed < 30.0
    verdict(
        ok,
        "zero-noise soundness",
        f"500 points: {missed} missed, {off_centroid} off-centroid, "
        f"{over_radius} beyond radius, {elapsed:.1f} s (limit 30 s)",
    )
    assert missed == 0
    assert off_centroid == 0
    assert over_radius == 0
    assert elapsed < 30.0


def test_missed_detection_rises_with_subset_size(dover_sweep):
    rates, _, elapsed = dover_sweep
    monotone = rates[4] <= rates[5] <= rates[6] <= rates[7]
    ok = rates[4] < 0.05 and monotone and rates[7] > rates[4] + 0.2 and elapsed < 300.0
    verdict(
        ok,
        "missed-detection trend",
        f"rates k=4..7 = {rates[4]:.3f}/{rates[5]:.3f}/{rates[6]:.3f}/{rates[7]:.3f}, "
        f"sweep {elapsed:.1f} s (limit 300 s)",
    )
    assert rates[4] < 0.05
    assert monotone
    assert rates[7] > rates[4] + 0.2
    assert elapsed < 300.0


def test_smaller_subsets_beat_using_every_ap(dover_sweep):
    rates, medians, _ = dover_sweep
    best_small = min(medians[3], medians[4], medians[5])
    ok = best_small <= medians[7] and rates[7] > 0.2
    verdict(
        ok,
        "selective-subset advantage",
        f"median error best(k=3..5)={best_small:.2f} m vs k=7={medians[7]:.2f} m, "
        f"k=7 missed rate {rates[7]:.2f}",
    )
    assert best_small <= medians[7]
    assert rates[7] > 0.2


def _best_contiguous_objective(xs_desc, k):
    """Exhaustive minimum of the within-cluster squared deviation over all
    contiguous k-partitions of the descending-sorted values."""
    n = len(xs_desc)
    prefix = np.concatenate([[0.0], np.cumsum(xs_desc)])
    prefix2 = np.concatenate([[0.0], np.cumsum(np.square(xs_desc))])

    def sse(a, b):  # cost of the slice [a, b)
        s, s2, m = prefix[b] - prefix[a], prefix2[b] - prefix2[a], b - a
        return s2 - s * s / m

    best = math.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        total = sum(sse(a, b) for a, b in zip(bounds, bounds[1:]))
        best = min(best, total)
    return best


def test_kmeans_clustering_properties():
    rng = np.random.default_rng(7)
    trials = 10_000
    contiguity_violations = 0
    monotonicity_violations = 0
    max_iterations = 0
    optimal = 0
    eligible = 0
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 5))
        values = {
            i + 1: float(v) for i, v in enumerate(rng.uniform(-90.0, -30.0, size=n))
        }
        result = kmeans_1d(values, k)
        max_iterations = max(max_iterations, result.iterations)

        order = sorted(values, key=lambda i: (-values[i], i))
        for cluster in result.clusters:
            pos = sorted(order.index(i) for i in cluster.ap_ids)
            if pos[-1] - pos[0] != len(pos) - 1:
                contiguity_violations += 1
        hist = result.objective_history
        if any(b > a + 1e-9 for a, b in zip(hist, hist[1:])):
            monotonicity_violations += 1

        if n <= 8:
            eligible += 1
            xs_desc = np.array(sorted(values.values(), reverse=True))
            best = _best_contiguous_objective(xs_desc, k)
            if result.objective <= best + 1e-9 * max(1.0, best):
                optimal += 1

    fraction = optimal / eligible
    ok = (
        contiguity_violations == 0
        and monotonicity_violations == 0
        and max_iterations <= 100
        and fraction >= 0.95
    )
    verdict(
        ok,
        "k-means properties",
        f"{trials} runs: {contiguity_violations} contiguity / "
        f"{monotonicity_violations} monotonicity violations, "
        f"max {max_iterations} iterations, optimal fraction "
        f"{fraction:.3f} of {eligible} (needs >= 0.95)",
    )
    assert contiguity_violations == 0
    assert monotonicity_violations == 0
    assert max_iterations <= 100
    # The default clustering is the exact least-squares split, so every
    # case should match the exhaustive optimum up to rounding.
    assert fraction >= 0.95


def test_longer_windows_do_not_hurt_accuracy():
    cfg = replace(load_config(str(DATA / "ecc.cfg")), k_values=(4,))
    deployment = load_deployment(cfg.deployment)
    stores = build_stores(deployment, cfg.k_values, cfg.cell_size)
    durations = (3.0, 10.0, 30.0, 60.0)
    per_seed = {d: [] for d in durations}
    for seed in SEEDS:
        sweep = window_sweep(cfg, durations, seed=seed, stores=stores)
        for d in durations:
            per_seed[d].append(sweep[d].per_k[4].median_error)
    medians = {d: statistics.fmean(per_seed[d]) for d in durations}
    ok = medians[60.0] <= medians[3.0]
    verdict(
        ok,
        "observation-window trend",
        "median error "
        + " -> ".join(f"{medians[d]:.2f} m @ {d:g} s" for d in durations),
    )
    assert medians[60.0] <= medians[3.0]


def test_store_files_are_stable(dover, tmp_path):
    store_a = build_map_store(dover, 4, 1.0)
    store_b = build_map_store(dover, 4, 1.0)
    path_a, path_b = tmp_path / "a.map", tmp_path / "b.map"
    save_map_store(store_a, path_a)
    save_map_store(store_b, path_b)
    loaded = load_map_store(path_a)[4]
    identical = path_a.read_bytes() == path_b.read_bytes()
    ok = loaded == store_a and identical
    verdict(
        ok,
        "serialization",
        f"round-trip equal={loaded == store_a}, two builds byte-identical={identical}",
    )
    assert loaded == store_a
    assert identical
