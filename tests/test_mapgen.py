"""Fingerprint-map construction: geometry oracles and partition properties."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq import mapgen
from apseq.evaluate import load_config
from apseq.localize import RssScan, localize
from apseq.mapgen import (
    GridSpec,
    _build_maps,
    _store_lines,
    _Partition,
    _partition,
    _quantize_array,
    build_map_store,
    build_stores,
    cell_signature,
    enumerate_ap_subsets,
    load_map_store,
    map_store_from_text,
    map_store_to_text,
    save_map_store,
)
from apseq.model import ApDeployment, _quantize, load_deployment, signature_to_text

DATA = resources.files("apseq") / "data"


def brute_force_signature(cx, cy, subset, deployment):
    """Independent oracle: sort subset APs by (distance to cell center, id)."""
    dists = []
    for ap_id in subset:
        ax, ay = deployment.position(ap_id)
        dists.append((math.hypot(cx - ax, cy - ay), ap_id))
    return tuple(ap_id for _, ap_id in sorted(dists))


@pytest.fixture
def two_ap_deployment():
    return ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 10.0, 0.0)))


@pytest.fixture
def collinear_deployment():
    return ApDeployment(
        width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0))
    )


class TestGridSpec:
    def test_cell_counts(self):
        grid = GridSpec(cell_size=0.2, width=60.0, height=40.0)
        assert (grid.cols, grid.rows) == (300, 200)
        assert grid.n_cells == 60000

    def test_near_integer_ratio_does_not_add_a_row(self):
        # 60 / 0.3 is 200.00000000000003 in floating point
        grid = GridSpec(cell_size=0.3, width=60.0, height=60.0)
        assert (grid.cols, grid.rows) == (200, 200)

    def test_partial_cells_at_the_far_edge(self):
        grid = GridSpec(cell_size=1.0, width=5.5, height=3.2)
        assert (grid.cols, grid.rows) == (6, 4)

    def test_cell_limit_refuses_a_huge_grid(self):
        # 1e6 m at 0.2 m is 5e6 x 5e6 cells: refused before any cell exists.
        dep = ApDeployment(width=1e6, height=1e6, aps=((1, 1.0, 1.0), (2, 9.0, 9.0)))
        with pytest.raises(ValueError, match="5000000 x 5000000 cells exceeds the limit of 10000000$"):
            GridSpec.for_deployment(dep, 0.2)

    def test_cell_limit_admits_its_own_size(self):
        assert GridSpec(cell_size=1.0, width=5000.0, height=2000.0).n_cells == 10_000_000
        with pytest.raises(ValueError, match="5001 x 2000 cells"):
            GridSpec(cell_size=1.0, width=5000.5, height=2000.0)

    def test_cell_size_must_leave_the_area_a_cell(self):
        # 4 / 1e308 is below the ceil's 1e-9 slack: zero columns and rows.
        with pytest.raises(ValueError, match="area no cell"):
            GridSpec(cell_size=1e308, width=4.0, height=4.0)

    def test_an_unbounded_side_with_no_cells_is_refused(self):
        # inf columns times zero rows is NaN, which counts no cell either.
        with pytest.raises(ValueError, match="area no cell"):
            GridSpec(cell_size=1e4, width=math.inf, height=1e-6)

    @pytest.mark.parametrize("cell_size", [0.0, -0.5, math.inf, math.nan])
    def test_cell_size_must_be_finite_and_positive(self, cell_size):
        with pytest.raises(ValueError, match="cell_size"):
            GridSpec(cell_size=cell_size, width=4.0, height=4.0)

    def test_cell_center_and_lookup_agree(self):
        grid = GridSpec(cell_size=0.5, width=8.0, height=4.0)
        for i, j in [(0, 0), (3, 2), (15, 7)]:
            x, y = grid.cell_center(i, j)
            assert grid.cell_of(x, y) == (i, j)

    def test_out_of_range_points_clamp(self):
        grid = GridSpec(cell_size=1.0, width=4.0, height=4.0)
        assert grid.cell_of(-1.0, 99.0) == (0, 3)

    def test_infinite_points_clamp(self):
        grid = GridSpec(cell_size=1.0, width=4.0, height=3.0)
        assert grid.cell_of(math.inf, -math.inf) == (3, 0)
        assert grid.cell_of(-math.inf, math.inf) == (0, 2)
        # Finite points whose quotient by the cell size overflows clamp too.
        assert GridSpec(cell_size=0.5, width=4.0, height=3.0).cell_of(1.7e308, -1.7e308) == (7, 0)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_points_have_no_cell(self, x, y):
        grid = GridSpec(cell_size=1.0, width=4.0, height=4.0)
        with pytest.raises(ValueError, match=r"point \(.*nan.*\) has no grid cell"):
            grid.cell_of(x, y)

    def test_flat_cells_are_row_major(self):
        # Flat cell c = j * cols + i: its group's slice of the partition
        # holds cell (i, j)'s centre, partial edge cells included.
        dep = ApDeployment(width=2.5, height=1.5, aps=((1, 0.0, 0.0), (2, 2.5, 1.5), (3, 0.0, 1.5)))
        grid = GridSpec.for_deployment(dep, 1.0)
        part = _partition(dep, grid)
        assert (grid.cols, grid.rows) == (3, 2)
        for c, group in enumerate(part.cell_labels.tolist()):
            cells = slice(part.starts[group], part.starts[group] + part.count[group])
            assert grid.cell_center(c % grid.cols, c // grid.cols) in zip(part.xs[cells], part.ys[cells])


class TestEnumerateSubsets:
    def test_counts_follow_binomials(self):
        for n, k, want in [(7, 2, 21), (7, 3, 35), (7, 4, 35), (7, 7, 1)]:
            assert len(enumerate_ap_subsets(range(1, n + 1), k)) == want

    def test_explicit_ids(self):
        assert enumerate_ap_subsets([4, 2, 9], 2) == [(2, 4), (2, 9), (4, 9)]

    def test_more_subsets_than_map_rows_are_refused_unlisted(self):
        message = r"^C\(40, 20\) = 137846528820 AP subsets exceed the limit of 1000000 map rows$"
        with pytest.raises(ValueError, match=message):
            enumerate_ap_subsets(range(40), 20)

    def test_lexicographic_order(self):
        subsets = enumerate_ap_subsets(range(1, 5), 3)
        assert subsets == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


class TestTwoApGeometry:
    """Half-plane split of a 10x10 area by APs at (0,0) and (10,0)."""

    def test_two_regions_with_known_centroids(self, two_ap_deployment):
        fmap = build_map_store(two_ap_deployment, 2, 1.0).maps[(1, 2)]
        assert fmap.n_regions == 2
        assert fmap.regions[(1, 2)].centroid == (2.5, 5.0)
        assert fmap.regions[(2, 1)].centroid == (7.5, 5.0)
        assert fmap.regions[(1, 2)].cell_count == 50
        assert fmap.regions[(2, 1)].cell_count == 50

    def test_region_stats_match_direct_computation(self, two_ap_deployment):
        fmap = build_map_store(two_ap_deployment, 2, 1.0).maps[(1, 2)]
        reg = fmap.regions[(1, 2)]
        pts = np.array([fmap.grid.cell_center(i, j) for i, j in fmap.cells_of((1, 2))])
        d = np.hypot(pts[:, 0] - 2.5, pts[:, 1] - 5.0)
        assert reg.accuracy == pytest.approx(d.mean(), abs=1e-6)
        assert reg.radius == pytest.approx(d.max(), abs=1e-6)
        assert reg.radius >= reg.accuracy


class TestCollinearGeometry:
    """Three collinear APs: four feasible orderings, two geometrically absent."""

    def test_feasible_signatures(self, collinear_deployment):
        fmap = build_map_store(collinear_deployment, 3, 1.0).maps[(1, 2, 3)]
        assert set(fmap.regions) == {(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)}
        # middle-AP-last orderings cannot occur anywhere on the line
        assert (1, 3, 2) not in fmap.regions
        assert (3, 1, 2) not in fmap.regions

    def test_cell_counts_include_tie_columns(self, collinear_deployment):
        # Columns at x = 2.5 and x = 7.5 sit exactly on bisectors; ties go to
        # the smaller ap_id, widening the "1-2-3" and "2-3-1" strips.
        fmap = build_map_store(collinear_deployment, 3, 1.0).maps[(1, 2, 3)]
        counts = {sig: reg.cell_count for sig, reg in fmap.regions.items()}
        assert counts == {(1, 2, 3): 30, (2, 1, 3): 20, (2, 3, 1): 30, (3, 2, 1): 20}

    def test_strip_centroids(self, collinear_deployment):
        fmap = build_map_store(collinear_deployment, 3, 1.0).maps[(1, 2, 3)]
        assert fmap.regions[(2, 1, 3)].centroid == (4.0, 5.0)
        assert fmap.regions[(3, 2, 1)].centroid == (9.0, 5.0)


def uniform_deployment(seed, n_aps):
    """n_aps APs drawn uniformly over a 12 m x 9 m floor."""
    rng = np.random.default_rng(seed)
    aps = tuple(
        (i + 1, float(rng.uniform(0, 12)), float(rng.uniform(0, 9)))
        for i in range(n_aps)
    )
    return ApDeployment(width=12.0, height=9.0, aps=aps)


class TestOracleEquivalence:
    # 12 APs make 66 AP pairs, each one bisector pass over the cells.
    @pytest.mark.parametrize("seed, n_aps", [(11, 4), (29, 5), (41, 12)])
    def test_every_cell_matches_brute_force(self, seed, n_aps):
        dep = uniform_deployment(seed, n_aps)
        subset = tuple(range(1, n_aps + 1))
        fmap = build_map_store(dep, n_aps, 0.5).maps[subset]
        grid = fmap.grid
        mismatches = 0
        for sig in fmap.regions:
            for i, j in fmap.cells_of(sig):
                cx, cy = grid.cell_center(int(i), int(j))
                if brute_force_signature(cx, cy, subset, dep) != sig:
                    mismatches += 1
        assert mismatches == 0

    def test_cell_signature_matches_oracle_at_arbitrary_points(self):
        rng = np.random.default_rng(5)
        dep = ApDeployment(
            width=30.0, height=20.0,
            aps=((1, 3.0, 4.0), (2, 25.0, 6.0), (3, 14.0, 17.0), (4, 8.0, 12.0)),
        )
        for _ in range(200):
            x = float(rng.uniform(0, 30)); y = float(rng.uniform(0, 20))
            assert cell_signature((x, y), (1, 2, 3, 4), dep) == brute_force_signature(
                x, y, (1, 2, 3, 4), dep
            )


@pytest.fixture(scope="module")
def random_deployment():
    rng = np.random.default_rng(77)
    aps = tuple(
        (i + 1, float(rng.uniform(0, 20)), float(rng.uniform(0, 15))) for i in range(5)
    )
    return ApDeployment(width=20.0, height=15.0, aps=aps)


class TestMapProperties:
    def test_cells_partition_the_grid(self, random_deployment):
        store = build_map_store(random_deployment, 3, 0.5)
        grid = store.grid
        for fmap in store.maps.values():
            seen = set()
            total = 0
            for sig in fmap.regions:
                for i, j in fmap.cells_of(sig):
                    seen.add((int(i), int(j)))
                    total += 1
            assert total == grid.n_cells
            assert len(seen) == grid.n_cells

    def test_region_count_bounded_by_k_factorial(self, random_deployment):
        for k in (2, 3, 4):
            for fmap in build_map_store(random_deployment, k, 0.5).maps.values():
                assert fmap.n_regions <= math.factorial(k)

    def test_discrete_convexity_of_regions(self, random_deployment):
        # Midpoints of random same-region cell pairs stay in the region,
        # except within one cell diagonal of a bisector.
        fmap = build_map_store(random_deployment, 3, 0.5).maps[(1, 2, 3)]
        grid = fmap.grid
        diag = grid.cell_size * math.sqrt(2.0)
        rng = np.random.default_rng(123)
        checked = violations = 0
        for sig, reg in fmap.regions.items():
            if reg.cell_count < 2:
                continue
            cells = fmap.cells_of(sig)
            idx = rng.integers(0, reg.cell_count, size=(40, 2))
            for a, b in idx:
                pa = grid.cell_center(int(cells[a][0]), int(cells[a][1]))
                pb = grid.cell_center(int(cells[b][0]), int(cells[b][1]))
                mid = ((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2)
                checked += 1
                if cell_signature(mid, sig, random_deployment) != sig:
                    # midpoint fell across a bisector: allowed only nearby
                    if _distance_to_nearest_bisector(mid, sig, random_deployment) > diag:
                        violations += 1
        assert checked > 0
        assert violations == 0

    def test_monotone_refinement_of_sub_subsets(self, random_deployment):
        fine = build_map_store(random_deployment, 3, 0.5).maps[(1, 2, 4)]
        grid = fine.grid
        for sig in fine.regions:
            reduced = tuple(i for i in sig if i in (1, 4))
            for i, j in fine.cells_of(sig):
                cx, cy = grid.cell_center(int(i), int(j))
                assert cell_signature((cx, cy), (1, 4), random_deployment) == reduced


def _distance_to_nearest_bisector(point, subset, deployment):
    best = math.inf
    ids = sorted(subset)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            ax, ay = deployment.position(ids[a])
            bx, by = deployment.position(ids[b])
            da2 = (point[0] - ax) ** 2 + (point[1] - ay) ** 2
            db2 = (point[0] - bx) ** 2 + (point[1] - by) ** 2
            sep = math.hypot(bx - ax, by - ay)
            if sep > 0:
                best = min(best, abs(da2 - db2) / (2 * sep))
    return best


@pytest.fixture(scope="module")
def tie_heavy_deployment():
    # Integer AP coordinates and 1 m cells (centres at half-integers): many
    # pairwise bisectors pass exactly through cell centres.
    return ApDeployment(
        width=12.0, height=10.0,
        aps=((1, 2.0, 3.0), (2, 8.0, 3.0), (3, 5.0, 7.0), (4, 2.0, 9.0), (5, 9.0, 8.0)),
    )


class TestStoreOracle:
    """Every map of a k < n store against the scalar cell_signature."""

    @pytest.mark.parametrize(
        "deployment_name, cell_size",
        [("random_deployment", 0.5), ("tie_heavy_deployment", 1.0)],
    )
    def test_every_cell_of_every_map(self, request, deployment_name, cell_size):
        dep = request.getfixturevalue(deployment_name)
        store = build_map_store(dep, 3, cell_size)
        grid = store.grid
        assert store.n_maps == 10
        ties = 0
        for subset, fmap in store.maps.items():
            owner = {}
            for sig, reg in fmap.regions.items():
                cells = fmap.cells_of(sig)
                assert len(cells) == reg.cell_count
                for i, j in cells:
                    owner[(int(i), int(j))] = sig
            assert len(owner) == grid.n_cells
            for i in range(grid.cols):
                for j in range(grid.rows):
                    centre = grid.cell_center(i, j)
                    sig = cell_signature(centre, subset, dep)
                    assert owner[(i, j)] == sig
                    assert fmap.region_at(*centre).signature == sig
                    d2 = [math.dist(centre, dep.position(a)) for a in subset]
                    ties += len(set(d2)) < len(d2)
        if deployment_name == "tie_heavy_deployment":
            assert ties >= 50  # (cell, map) pairs with a distance tie

    @pytest.mark.parametrize(
        "deployment_name, cell_size",
        [("random_deployment", 0.5), ("tie_heavy_deployment", 1.0)],
    )
    def test_region_stats_of_every_map(self, request, deployment_name, cell_size):
        # Direct per-region computation from the member cell centres.
        dep = request.getfixturevalue(deployment_name)
        grid = GridSpec.for_deployment(dep, cell_size)
        for k in range(2, dep.n_aps + 1):
            for fmap in build_map_store(dep, k, cell_size).maps.values():
                for sig, reg in fmap.regions.items():
                    pts = np.array([grid.cell_center(i, j) for i, j in fmap.cells_of(sig)])
                    centroid = pts.mean(axis=0)
                    d = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
                    assert reg.cell_count == len(pts)
                    assert reg.centroid == pytest.approx(tuple(centroid), abs=1e-6)
                    assert reg.accuracy == pytest.approx(d.mean(), abs=1e-6)
                    assert reg.radius == pytest.approx(d.max(), abs=1e-6)

    @pytest.mark.parametrize("name", ["dover", "ecc", "random", "twelve"])
    def test_shared_build_gives_the_per_k_store_texts(self, random_deployment, name):
        if name == "random":
            dep, cell_size = random_deployment, 0.5
        elif name == "twelve":
            dep, cell_size = uniform_deployment(41, 12), 0.5
        else:
            config = load_config(str(DATA / f"{name}.cfg"))
            dep, cell_size = load_deployment(config.deployment), config.cell_size
        ks = range(2, dep.n_aps + 1)
        if name == "twelve":
            # k = 4..9 hold 3 718 of the 4 083 maps and take seconds.
            ks = [2, 3, 10, 11, 12]
        stores = build_stores(dep, ks, cell_size)
        for k in ks:
            assert map_store_to_text(stores[k]) == map_store_to_text(build_map_store(dep, k, cell_size))


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a non-negative int matrix in lexicographic order,
    and the index of each input row among them."""
    # Big-endian rows compare bytewise in numeric lexicographic order, so
    # one scalar unique over the row bytes sorts them as tuples would.
    packed = np.ascontiguousarray(rows, dtype=">u4")
    keys = packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse.ravel()


def _partition_oracle(deployment: ApDeployment, grid: GridSpec) -> _Partition:
    """Reference partition: every cell's full argsort, grouped by unique rows."""
    ids = np.asarray(deployment.ap_ids)
    gx, gy = np.meshgrid((np.arange(grid.cols) + 0.5) * grid.cell_size,
                         (np.arange(grid.rows) + 0.5) * grid.cell_size)  # shape (rows, cols)
    xs, ys = gx.ravel(), gy.ravel()
    pos = np.asarray(deployment.positions(deployment.ap_ids), dtype=np.float64)
    # Squared distances, same arithmetic as cell_signature: dx*dx + dy*dy
    dx = xs[:, None] - pos[None, :, 0]
    dy = ys[:, None] - pos[None, :, 1]
    # Stable argsort on distance; columns are in ascending-id order, so ties
    # resolve toward the smaller ap_id exactly as the scalar version does.
    orders, cell_labels = _unique_rows(np.argsort(dx * dx + dy * dy, axis=1, kind="stable"))
    # Labels in the narrowest unsigned dtype that holds the group count.
    cell_labels = cell_labels.astype(np.min_scalar_type(len(orders)))
    perm = np.argsort(cell_labels, kind="stable")
    count = np.bincount(cell_labels)
    starts = np.concatenate(([0], np.cumsum(count[:-1])))
    xs, ys = xs[perm], ys[perm]
    return _Partition(ids, orders, cell_labels, xs, ys, starts, count,
                      np.add.reduceat(xs, starts), np.add.reduceat(ys, starts))


def lattice_deployment(seed):
    """2-13 APs with shuffled ids on a half-metre lattice over 10 m x 8 m:
    many bisectors pass exactly through cell centres."""
    rng = np.random.default_rng(seed)
    n_aps = 2 + seed % 12
    spots = rng.choice(21 * 17, size=n_aps, replace=False)
    ids = rng.choice(np.arange(1, 60), size=n_aps, replace=False)
    return ApDeployment(
        width=10.0, height=8.0,
        aps=tuple((int(i), float(p % 21) / 2, float(p // 21) / 2) for i, p in zip(ids, spots)),
    )


@st.composite
def lattice_deployments(draw, n_aps=st.one_of(st.sampled_from([8, 9, 11, 12]), st.integers(2, 13))):
    """2-13 APs (or as many as `n_aps` draws) with any ids on the half-metre
    lattice over 10 m x 8 m.  By default often 8 or 9 APs (28 or 36 AP pairs)
    and 11 or 12 (55 or 66): either side of 32 and of 64 AP pairs."""
    n_aps = draw(n_aps)
    spots = draw(st.lists(st.integers(0, 21 * 17 - 1), min_size=n_aps, max_size=n_aps, unique=True))
    ids = draw(st.lists(st.integers(1, 99), min_size=n_aps, max_size=n_aps, unique=True))
    return ApDeployment(width=10.0, height=8.0,
                        aps=tuple((i, (p % 21) / 2, (p // 21) / 2) for i, p in zip(ids, spots)))


@st.composite
def co_located_deployments(draw, n_aps=st.integers(2, 13)):
    """lattice_deployments of 2-13 APs (or as many as `n_aps` draws) with one AP
    moved onto another's spot: that pair's bisector has a zero normal, so at
    every cell the tie rule (the smaller id first) orders it."""
    dep = draw(lattice_deployments(n_aps=n_aps))
    aps = list(dep.aps)
    moved, spot = draw(st.lists(st.sampled_from(range(len(aps))), min_size=2, max_size=2, unique=True))
    aps[moved] = (aps[moved][0], *aps[spot][1:])
    return ApDeployment(width=dep.width, height=dep.height, aps=tuple(aps))


@st.composite
def collinear_deployments(draw, n_aps=st.integers(2, 13)):
    """lattice_deployments of 2-13 APs (or as many as `n_aps` draws) moved onto
    one row of the lattice: every bisector is parallel to the y axis."""
    dep = draw(lattice_deployments(n_aps=n_aps))
    y = draw(st.integers(0, 16)) / 2
    return ApDeployment(width=dep.width, height=dep.height, aps=tuple((i, x, y) for i, x, _ in dep.aps))


def uniform_60x40_deployment(n_aps):
    """n_aps APs at uniform random spots over 60 m x 40 m."""
    spots = np.random.default_rng(n_aps).uniform((0, 0), (60, 40), (n_aps, 2)).tolist()
    return ApDeployment(width=60.0, height=40.0, aps=tuple((i + 1, x, y) for i, (x, y) in enumerate(spots)))


class TestPartitionOracle:
    """The bisector-side grouping against every cell's full argsort."""

    @staticmethod
    def assert_same_partition(dep, cell_size):
        grid = GridSpec.for_deployment(dep, cell_size)
        got, want = _partition(dep, grid), _partition_oracle(dep, grid)
        for name, a, b in zip(_Partition._fields, got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("name", ["dover", "ecc"])
    @pytest.mark.parametrize("cell_size", [0.25, 0.4, 0.5])
    def test_bundled_deployments(self, name, cell_size):
        dep = load_deployment(load_config(str(DATA / f"{name}.cfg")).deployment)
        self.assert_same_partition(dep, cell_size)

    @pytest.mark.parametrize("seed", range(30))
    def test_lattice_deployments(self, seed):
        dep = lattice_deployment(seed)
        # 0.3 and 0.7 leave a partial last column and row on the 10 m x 8 m area.
        for cell_size in (0.25, 0.3, 0.4, 0.5, 0.7):
            self.assert_same_partition(dep, cell_size)

    def test_lattice_deployments_reach_two_words(self):
        # Every AP count from 2 to 13: more than 8 APs and more than 11.
        assert {lattice_deployment(seed).n_aps for seed in range(30)} == set(range(2, 14))

    @settings(database=None, deadline=None, max_examples=60)
    @given(dep=lattice_deployments(), cell_size=st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.2, 2.0)))
    def test_random_lattice_deployments(self, dep, cell_size):
        self.assert_same_partition(dep, cell_size)

    @settings(database=None, deadline=None, max_examples=60)
    @given(dep=co_located_deployments(), cell_size=st.sampled_from([0.25, 0.3, 0.5, 0.7]))
    def test_co_located_aps(self, dep, cell_size):
        assert len({(x, y) for _, x, y in dep.aps}) < dep.n_aps
        self.assert_same_partition(dep, cell_size)

    @settings(database=None, deadline=None, max_examples=20)
    @given(dep=lattice_deployments(n_aps=st.integers(14, 30)), cell_size=st.sampled_from([0.25, 0.3, 0.5]))
    def test_many_lattice_aps(self, dep, cell_size):
        self.assert_same_partition(dep, cell_size)

    @pytest.mark.parametrize("n_aps", [14, 20, 30])
    def test_many_uniform_aps(self, n_aps):
        self.assert_same_partition(uniform_60x40_deployment(n_aps), 0.5)


def _map_stats_oracle(part: _Partition, lut: np.ndarray) -> np.ndarray:
    """Rows of cell count, centroid x and y, accuracy and radius, unquantized,
    over the regions of one map whose region numbers by group are `lut`: the
    per-map statistics that the build once computed map by map."""
    count = np.bincount(lut, weights=part.count)
    cx = np.bincount(lut, weights=part.sum_x) / count
    cy = np.bincount(lut, weights=part.sum_y) / count
    dx, dy = np.repeat(cx[lut], part.count), np.repeat(cy[lut], part.count)
    np.subtract(part.xs, dx, out=dx)
    dx *= dx
    np.subtract(part.ys, dy, out=dy)
    dy *= dy
    dx += dy
    dist = np.sqrt(dx, out=dx)
    accuracy = np.bincount(lut, weights=np.add.reduceat(dist, part.starts)) / count
    radius = np.zeros(len(count))
    np.maximum.at(radius, lut, np.maximum.reduceat(dist, part.starts))
    return np.stack((count, cx, cy, accuracy, radius))


def _fstring_map_lines(store) -> list[str]:
    """The store's map blocks as one f-string per region line renders them."""
    out = []
    for subset in sorted(store.maps):
        out.append("map " + " ".join(str(i) for i in subset))
        out.extend(
            f"region {signature_to_text(sig)} {x:.6f} {y:.6f} {acc:.6f} {rad:.6f} {n}"
            for sig, n, x, y, acc, rad in zip(*(column.tolist() for column in store.maps[subset].columns))
        )
    return out


class TestMapStatsOracle:
    """Every map's columns and lut against a map-by-map build from the
    partition, and the writer's lines against the f-string renderer."""

    @settings(database=None, deadline=None, max_examples=40)
    @given(dep=lattice_deployments(n_aps=st.integers(2, 9)), cell_size=st.floats(0.3, 2.0))
    def test_random_lattice_deployments(self, dep, cell_size):
        part = _partition(dep, GridSpec.for_deployment(dep, cell_size))
        full = part.ids[part.orders]
        for k, store in build_stores(dep, range(2, dep.n_aps + 1), cell_size).items():
            for subset, fmap in store.maps.items():
                sigs, lut = _unique_rows(full[np.isin(full, subset)].reshape(-1, k))
                count, *reals = _map_stats_oracle(part, lut)
                want = (sigs, count.astype(np.int64), *(np.array([_quantize(v) for v in r]) for r in reals), lut)
                for name, got, expected in zip(("signatures", "count", "cx", "cy", "accuracy", "radius", "lut"),
                                               (*fmap.columns, fmap.lut), want):
                    assert got.dtype == expected.dtype, (subset, name)
                    assert np.array_equal(got, expected), (subset, name)
            # Past the file's head: the header, the deployment block and the grid line.
            assert _store_lines(store)[dep.n_aps + 4:] == _fstring_map_lines(store)


def spy(monkeypatch, name):
    """The argument tuples of every call of mapgen's function `name` from now on."""
    calls, fn = [], getattr(mapgen, name)
    monkeypatch.setattr(mapgen, name, lambda *args: calls.append(args) or fn(*args))
    return calls


class TestMapsOnLookup:
    """A store's maps are made from the set's one partition: a lookup builds
    one map, and whole-store access builds the rest of its k in one batch."""

    @settings(database=None, deadline=None, max_examples=20)
    @given(
        dep=st.one_of(*(kind(n_aps=st.integers(2, 9))
                        for kind in (lattice_deployments, co_located_deployments, collinear_deployments))),
        cell_size=st.floats(0.25, 1.3),
        data=st.data(),
    )
    def test_a_map_made_on_lookup_is_the_batched_build(self, dep, cell_size, data):
        grid = GridSpec.for_deployment(dep, cell_size)
        part = _partition(dep, grid)
        ks = range(2, dep.n_aps + 1)
        lazy, other = build_stores(dep, ks, cell_size), build_stores(dep, ks, cell_size)
        for k in ks:
            subsets = enumerate_ap_subsets(dep.ap_ids, k)
            batched = _build_maps(part, subsets, grid)
            looked_up = data.draw(st.permutations(subsets))[:data.draw(st.integers(0, len(subsets)))]
            for subset in looked_up:
                got, want = lazy[k].maps[subset], batched[subset]
                other[k].maps[subset]  # the same partial lookups, for the writer below
                assert (got.subset, got.grid) == (subset, grid)
                for a, b in zip((*got.columns, got.lut[got.cell_labels]),
                                (*want.columns, want.lut[want.cell_labels])):
                    assert a.dtype == b.dtype and np.array_equal(a, b), subset
            with pytest.MonkeyPatch.context() as mp:
                builds = spy(mp, "_build_maps")
                assert len(lazy[k].maps) == lazy[k].n_maps == len(subsets)
                assert all(subset in lazy[k].maps for subset in subsets)
                assert builds == []
            # Out of order, with an id foreign to the deployment, one id short.
            for bad in (subsets[0][::-1], (*subsets[0][:-1], max(dep.ap_ids) + 1), subsets[0][:-1]):
                assert bad not in lazy[k].maps
                with pytest.raises(KeyError):
                    lazy[k].maps[bad]
            eager = build_map_store(dep, k, cell_size)
            assert lazy[k] == eager  # which builds every map of either store
            assert map_store_to_text(other[k]) == map_store_to_text(eager)

    def test_build_stores_partitions_once_and_builds_no_map(self, small_store, monkeypatch):
        partitions, builds = spy(monkeypatch, "_partition"), spy(monkeypatch, "_build_maps")
        build_stores(small_store.deployment, [2, 3, 4], small_store.grid.cell_size)
        assert (len(partitions), builds) == (1, [])

    def test_whole_store_access_builds_the_rest_of_a_k_in_one_batch(self, small_store, monkeypatch):
        want = map_store_to_text(small_store)
        store = build_stores(small_store.deployment, [2, 3], small_store.grid.cell_size)[3]
        partition_ms = store.build_ms
        builds = spy(monkeypatch, "_build_maps")
        store.maps[(2, 3, 4)], store.maps[(1, 2, 4)], store.maps[(2, 3, 4)]
        assert [subsets for _, subsets, _ in builds] == [[(2, 3, 4)], [(1, 2, 4)]]
        assert map_store_to_text(store) == want
        assert [subsets for _, subsets, _ in builds[2:]] == [[(1, 2, 3), (1, 3, 4)]]
        list(store.maps.items())
        assert len(builds) == 3
        assert store.build_ms > partition_ms  # the partition's time, then its maps' builds too

    def test_a_first_estimate_among_many_aps_holds_one_map(self):
        # 14 APs at 0.5 m: C(14, 3) = 364 maps over 1 579 orderings.  Built
        # all before the first estimate, they peaked at 32.6 MB traced; the
        # partition and the one map this walk probes peak at 1.6 MB.
        dep = uniform_60x40_deployment(14)
        scan = RssScan(values={i: -30.0 - 20.0 * math.log10(1.0 + math.hypot(x - 20.3, y - 17.1))
                               for i, x, y in dep.aps})
        localize(scan, build_stores(dep, (3,), 0.5), 3)  # numpy's one-time allocations are not the build's
        peak, outcome = traced_peak(lambda: localize(scan, build_stores(dep, (3,), 0.5), 3))
        assert outcome.candidates_tried == 1
        assert peak < 4_000_000


def traced_peak(fn, *args):
    """fn(*args)'s peak of traced allocations in bytes, and its result or ValueError."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except ValueError as exc:
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestPartitionSize:
    def test_limit_admits_its_own_size(self, small_store, monkeypatch):
        dep, grid = small_store.deployment, small_store.grid
        size = grid.n_cells * (dep.n_aps + 1)
        monkeypatch.setattr(mapgen, "MAX_PARTITION_VALUES", size)
        assert build_map_store(dep, 3, grid.cell_size) == small_store
        monkeypatch.setattr(mapgen, "MAX_PARTITION_VALUES", size - 1)
        with pytest.raises(ValueError, match=rf"^{grid.n_cells} cells x \(4 APs \+ 1 blocks of 32 AP pairs\) = "
                                             rf"{size} values exceed the limit of {size - 1}$"):
            build_map_store(dep, 3, grid.cell_size)

    def test_oversized_partition_is_refused_unallocated(self, monkeypatch):
        # 200 x 100 cells x (2 APs + 1 block of AP pairs): three times a
        # lowered limit, and ≈ 0.8 MB of partition if built.
        monkeypatch.setattr(mapgen, "MAX_PARTITION_VALUES", 20_000)
        dep = ApDeployment(width=200.0, height=100.0, aps=((1, 1.0, 1.0), (2, 9.0, 9.0)))
        peak, error = traced_peak(_partition, dep, GridSpec.for_deployment(dep, 1.0))
        assert str(error) == ("20000 cells x (2 APs + 1 blocks of 32 AP pairs) = 60000 values "
                              "exceed the limit of 20000")
        assert peak < 50_000

    def test_blocks_of_ap_pairs_count_toward_the_limit(self):
        # 256 APs on 10 000 cells: 2 560 000 distances, but C(256, 2) pairs
        # make 1 020 blocks of 32 pairs a cell, ≈ 100 MB if built.
        dep = ApDeployment(width=100.0, height=100.0,
                           aps=tuple((i + 1, float(i % 16 * 6), float(i // 16 * 6)) for i in range(256)))
        peak, error = traced_peak(_partition, dep, GridSpec.for_deployment(dep, 1.0))
        assert str(error) == ("10000 cells x (256 APs + 1020 blocks of 32 AP pairs) = 12760000 values "
                              "exceed the limit of 10000000")
        assert peak < 50_000

    def test_ap_limit(self):
        aps = tuple((i + 1, i % 16 + 0.5, i // 16 + 0.5) for i in range(257))
        TestPartitionOracle.assert_same_partition(ApDeployment(width=17.0, height=17.0, aps=aps[:256]), 4.25)
        dep = ApDeployment(width=17.0, height=17.0, aps=aps)
        peak, error = traced_peak(_partition, dep, GridSpec.for_deployment(dep, 4.25))
        assert str(error) == "257 APs exceed the limit of 256 in one partition"
        assert peak < 50_000

    def test_peak_memory_per_cell(self):
        # The squared distances (8 B an AP) dominate: 56 of ≈ 61.5 B a cell
        # for dover's 7 APs; the rest is the runs' one-byte masks.
        dep = load_deployment(load_config(str(DATA / "dover.cfg")).deployment)
        grid = GridSpec.for_deployment(dep, 0.2)
        _partition(dep, grid)  # numpy's one-time allocations are not the partition's
        peak, part = traced_peak(_partition, dep, grid)
        assert len(part.cell_labels) == grid.n_cells == 60000
        assert peak / grid.n_cells <= 80


@pytest.fixture(scope="module")
def small_store():
    dep = ApDeployment(
        width=12.0, height=8.0,
        aps=((1, 2.0, 2.0), (2, 10.0, 2.0), (3, 6.0, 7.0), (4, 11.0, 6.0)),
    )
    return build_map_store(dep, 3, 0.5)


def _drop_block(text, head):
    """The store text without the map block that starts at line `head`."""
    start = text.index(head + "\n")
    end = text.find("map ", start + len(head))
    return text[:start] + (text[end:] if end >= 0 else "")


def refused_at(line, got, want):
    """The loader's message for a store whose first line off the rebuild is
    `line`: the file's line and the rebuild's, None where the store ends."""
    got, want = ("end of store" if side is None else repr(side) for side in (got, want))
    return re.escape(f"<string>: line {line}: {got}, rebuild gives {want}") + "$"


# Edits of small_store's head, by the fault each makes.  Only a fault that
# stops the rebuild has a message of its own; any other is refused at the
# first line that is not the rebuild's, like an edit of the map blocks.
LOADER_FAULTS = {
    "unsupported version (expected 'APSEQMAP v1')":
        (lambda t: t.replace("APSEQMAP v1", "APSEQMAP v2"), r"<string>: unsupported version \(expected 'APSEQMAP v1'\)"),
    "truncated store file":
        (lambda t: t[: t.index("grid ")], r"<string>: truncated store file$"),
    "missing deployment block":
        (lambda t: t.replace("APSEQ-DEPLOY v1", "APSEQ-DEPLOY v0"),
         r"<string>: unsupported version \(expected 'APSEQ-DEPLOY v1'\)$"),
    "malformed grid line":
        (lambda t: t.replace("grid 0.500000", "grid 0.500000 1"), refused_at(8, "grid 0.500000 1", "grid 0.500000")),
    "malformed grid line 'grid abc'":
        (lambda t: t.replace("grid 0.500000", "grid abc"), r"<string>: malformed grid line 'grid abc'"),
    "malformed map line 'map 1 x 3'":
        (lambda t: t.replace("map 1 2 3\n", "map 1 x 3\n"), refused_at(9, "map 1 x 3", "map 1 2 3")),
    "malformed map line 'map 1 1 3' (duplicate AP id in subset)":
        (lambda t: t.replace("map 1 2 3\n", "map 1 1 3\n"), refused_at(9, "map 1 1 3", "map 1 2 3")),
    "expected map line, got 'region 1-2-3'":
        (lambda t: t.replace("grid 0.500000\n", "grid 0.500000\nregion 1-2-3\n"),
         r"<string>: expected map line, got 'region 1-2-3'"),
    "store contains no maps":
        (lambda t: t[: t.index("map ")], r"<string>: truncated store file$"),
}


# Lines 10-12 of small_store's text, the first region lines of map (1, 2, 3):
R123 = "region 1-2-3 4.773810 0.964286 0.975918 2.146161 21"
R132 = "region 1-3-2 2.113208 3.193396 2.055213 4.464031 106"
R213 = "region 2-1-3 7.226190 0.964286 0.975918 2.146161 21"
# Region 1-4-3 of map (1, 3, 4), line 25, has accuracy = radius = 0.25.
R143 = "region 1-4-3 7.750000 0.500000 0.250000 0.250000 2"


def _accuracy_above_radius(text):
    return text.replace(R143, R143.replace(" 0.250000 ", " 0.250001 ", 1))


# Edits of small_store's map blocks, by the fault each makes.  The loader
# refuses every one at the first line that is not the rebuild's.
BODY_FAULTS = {
    "malformed region line 'region 1-2-3 4.773810 0.964286 0.975918 2.146161'$":
        (lambda t: t.replace(" 21\n", "\n", 1), 10, R123.removesuffix(" 21"), R123),
    "malformed region line 'region 1-2-3 4.773810 x ":
        (lambda t: t.replace(" 0.964286 ", " x ", 1), 10, R123.replace(" 0.964286 ", " x "), R123),
    "malformed region line 'region 1-x-3 4.773810 ":
        (lambda t: t.replace("region 1-2-3 ", "region 1-x-3 ", 1), 10, R123.replace("1-2-3", "1-x-3"), R123),
    "region signature 1-2-4 not over map subset":
        (lambda t: t.replace("region 1-2-3 ", "region 1-2-4 "), 10, R123.replace("1-2-3", "1-2-4"), R123),
    "region signature 1 not over map subset$":
        (lambda t: t.replace("region 1-2-3 ", "region 1 ", 1), 10, R123.replace("1-2-3", "1"), R123),
    "duplicate region signature 1-2-3":
        (lambda t: t.replace("region 1-3-2 ", "region 1-2-3 "), 11, R132.replace("1-3-2", "1-2-3"), R132),
    "map (1, 2, 3) declares 5 regions, rebuild gives 6":
        (lambda t: t.replace(R132 + "\n", ""), 11, R213, R132),
    # AP 3 moved onto the line through APs 1 and 2, between them: the map
    # of (1, 2, 3) loses the two orderings that put AP 3 last.
    "region signatures disagree with rebuild for map (1, 2, 3)":
        (lambda t: t.replace("ap 3 6.000000 7.000000", "ap 3 6.000000 2.000000")
         .replace(R123 + "\n", "").replace(R132 + "\n", ""),
         10, R213, "region 1-3-2 2.000000 4.000000 2.366925 4.138236 128"),
    "cell_count mismatch for region 1-2-3 (file 22, rebuilt 21)":
        (lambda t: t.replace(" 2.146161 21\n", " 2.146161 22\n", 1), 10, R123[:-2] + "22", R123),
    "region stats mismatch for 1-2-3":
        (lambda t: t.replace(" 0.975918 ", " 0.975921 ", 1), 10, R123.replace(" 0.975918 ", " 0.975921 "), R123),
    "region radius cannot be below its accuracy for 1-4-3 (radius 0.250000, accuracy 0.250001)":
        (_accuracy_above_radius, 25, R143.replace(" 0.250000 ", " 0.250001 ", 1), R143),
    # A map line after the first is read as text, like a region line.
    "malformed map line 'map 1 x 4'":
        (lambda t: t.replace("map 1 2 4\n", "map 1 x 4\n"), 16, "map 1 x 4", "map 1 2 4"),
    "malformed map line 'map 1 1 4' (duplicate AP id in subset)":
        (lambda t: t.replace("map 1 2 4\n", "map 1 1 4\n"), 16, "map 1 1 4", "map 1 2 4"),
    "duplicate map block for subset (1, 2, 3)":
        (lambda t: t + t[t.index("map 1 2 3"): t.index("map 1 2 4")], 37, "map 1 2 3", None),
    "3 maps does not match C(4,3)=4":
        (lambda t: _drop_block(t, "map 2 3 4"), 30, None, "map 2 3 4"),
}


class TestMapStore:
    def test_one_map_per_subset(self, small_store):
        assert small_store.n_maps == 4
        assert set(small_store.maps) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}

    def test_round_trip_equality(self, small_store, tmp_path):
        path = tmp_path / "store.map"
        save_map_store(small_store, path)
        loaded = load_map_store(path)
        assert loaded == small_store
        assert loaded.k == 3
        assert loaded.grid == small_store.grid

    def test_round_trip_equality_with_aps_out_of_id_order(self):
        dep = ApDeployment(
            width=12.0, height=8.0, aps=((3, 6.0, 7.0), (1, 2.0, 2.0), (2, 10.0, 2.0))
        )
        store = build_map_store(dep, 2, 0.5)
        assert map_store_from_text(map_store_to_text(store)) == store

    def test_resave_is_byte_identical(self, small_store, tmp_path):
        p1, p2 = tmp_path / "a.map", tmp_path / "b.map"
        save_map_store(small_store, p1)
        save_map_store(load_map_store(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version(self, small_store):
        text = map_store_to_text(small_store).replace("APSEQMAP v1", "APSEQMAP v2", 1)
        with pytest.raises(ValueError, match="unsupported version"):
            map_store_from_text(text)

    def test_missing_region_line_detected(self, small_store):
        lines = map_store_to_text(small_store).splitlines()
        drop = next(i for i, ln in enumerate(lines) if ln.startswith("region "))
        with pytest.raises(ValueError, match=refused_at(10, R132, R123)):
            map_store_from_text("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")

    def test_a_block_that_ends_early_or_late_is_refused_where_it_ends(self, small_store):
        lines = map_store_to_text(small_store).splitlines()
        cases = [
            (lines[:14] + lines[15:], 15, lines[15], lines[14]),  # last line of map (1, 2, 3)
            (lines[:-1], 36, None, lines[-1]),  # last line of the file
            (lines[:15] + [R123] + lines[15:], 16, R123, lines[15]),
            (lines + [R123], 37, R123, None),
        ]
        for edited, line, got, want in cases:
            with pytest.raises(ValueError, match=refused_at(line, got, want)):
                map_store_from_text("\n".join(edited) + "\n")

    def test_map_blocks_out_of_subset_order_are_refused(self, small_store):
        head, *blocks = map_store_to_text(small_store).split("map ")
        with pytest.raises(ValueError, match=refused_at(9, "map 2 3 4", "map 1 2 3")):
            map_store_from_text(head + "".join("map " + b for b in blocks[::-1]))
        swapped = [blocks[0], blocks[2], blocks[1], blocks[3]]
        with pytest.raises(ValueError, match=refused_at(16, "map 1 3 4", "map 1 2 4")):
            map_store_from_text(head + "".join("map " + b for b in swapped))

    @staticmethod
    def assert_first_region_refused(store, field, value):
        """The first region line, line 10, with one field replaced is refused at that line."""
        text = map_store_to_text(store)
        parts = R123.split()
        parts[field] = value(parts[field])
        with pytest.raises(ValueError, match=refused_at(10, " ".join(parts), R123)):
            map_store_from_text(text.replace(R123, " ".join(parts), 1))

    def test_tampered_stats_detected(self, small_store):
        self.assert_first_region_refused(small_store, 2, lambda v: f"{float(v) + 0.5:.6f}")

    def test_tampered_cell_count_detected(self, small_store):
        self.assert_first_region_refused(small_store, 6, lambda v: str(int(v) + 1))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [2, 3, 4, 5])
    def test_non_finite_stats_detected(self, small_store, field, value):
        self.assert_first_region_refused(small_store, field, lambda v: value)

    def test_map_naming_an_unknown_ap_detected(self, small_store):
        # The first map line sets k alone, so an AP id off the deployment is
        # refused as a line off the rebuild, on the first map line or a later one.
        cases = [((1, 2, 3), refused_at(9, "map 1 2 9", "map 1 2 3")),
                 ((1, 2, 4), refused_at(16, "map 1 2 9", "map 1 2 4"))]
        for subset, message in cases:
            # The block's last AP renamed to 9 throughout.
            last, lines = str(subset[-1]), map_store_to_text(small_store).splitlines()
            start = lines.index("map " + " ".join(map(str, subset)))
            lines[start] = lines[start][:-1] + "9"
            for n in range(start + 1, len(lines)):
                if not lines[n].startswith("region "):
                    break
                parts = lines[n].split()
                parts[1] = parts[1].replace(last, "9")
                lines[n] = " ".join(parts)
            with pytest.raises(ValueError, match=message):
                map_store_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("line", ["map 1 2", "map 1 2 3 4"])
    def test_map_of_the_wrong_size_detected(self, small_store, line):
        text = map_store_to_text(small_store).replace("map 1 2 4\n", line + "\n", 1)
        with pytest.raises(ValueError, match=refused_at(16, line, "map 1 2 4")):
            map_store_from_text(text)

    def test_missing_map_block_detected(self, small_store):
        lines = map_store_to_text(small_store).splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("map "))
        end = next(
            (i for i, ln in enumerate(lines[start + 1:], start + 1) if ln.startswith("map ")),
            len(lines),
        )
        with pytest.raises(ValueError, match=refused_at(9, "map 1 2 4", "map 1 2 3")):
            map_store_from_text("\n".join(lines[:start] + lines[end:]) + "\n")

    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(edit, m, id=fault) for fault, (edit, m) in LOADER_FAULTS.items()]
        + [pytest.param(edit, refused_at(*sides), id=fault) for fault, (edit, *sides) in BODY_FAULTS.items()]
        # The accuracy edit once more, matched by its line number alone.
        + [pytest.param(_accuracy_above_radius, "<string>: line 25: ",
                        id="region radius cannot be below its accuracy")],
    )
    def test_loader_message(self, small_store, edit, message):
        text = edit(map_store_to_text(small_store))
        with pytest.raises(ValueError, match=message):
            map_store_from_text(text)

    def test_reordered_region_lines_are_refused(self, small_store):
        lines = map_store_to_text(small_store).splitlines()
        start = lines.index("map 1 2 3") + 1
        end = lines.index("map 1 2 4")
        lines[start:end] = lines[start:end][::-1]
        with pytest.raises(ValueError, match=refused_at(10, lines[start], R123)):
            map_store_from_text("\n".join(lines) + "\n")

    def test_indented_and_blank_lines_load_the_same_store(self, small_store):
        text = map_store_to_text(small_store)
        edited = "\n" + text.replace("\nregion ", "\n\n   region ").replace("\nmap ", "\n\t map ")
        assert edited != text
        assert map_store_from_text(edited) == small_store
        # A refusal counts the blank lines: R123, line 10, is now line 12.
        with pytest.raises(ValueError, match=refused_at(12, R123[:-2] + "22", R123)):
            map_store_from_text(edited.replace(R123, R123[:-2] + "22"))

    def test_rows_are_checked_in_order(self, small_store):
        # Map (1, 2, 3) with a wrong cell count in its last row, 3-2-1, on line 15.
        r321 = "region 3-2-1 8.126923 6.296154 1.728712 3.903890 65"
        text = map_store_to_text(small_store).replace(r321, r321[:-2] + "66")
        with pytest.raises(ValueError, match=refused_at(15, r321[:-2] + "66", r321)):
            map_store_from_text(text)
        # An edit of an earlier row is named first: 1-3-2 on line 11, then
        # 1-2-3 on line 10, however small its change.
        far = text.replace(R132, R132.replace(" 2.113208 ", " 2.613208 "))
        with pytest.raises(ValueError, match=refused_at(11, R132.replace(" 2.113208 ", " 2.613208 "), R132)):
            map_store_from_text(far)
        near = far.replace(R123, R123.replace(" 4.773810 ", " 4.773811 "))
        with pytest.raises(ValueError, match=refused_at(10, R123.replace(" 4.773810 ", " 4.773811 "), R123)):
            map_store_from_text(near)

    def test_grid_off_the_cell_size_round_trips(self):
        # 10.3 x 7.1 m is no whole number of 0.5 m cells: 21 x 15 cells.
        dep = ApDeployment(
            width=10.3, height=7.1, aps=((1, 1.0, 1.0), (2, 9.8, 2.0), (3, 5.0, 6.9))
        )
        grid = GridSpec.for_deployment(dep, 0.5)
        assert (grid.cols, grid.rows) == (21, 15)
        store = build_map_store(dep, 2, 0.5)
        assert store.grid == grid
        assert build_stores(dep, [2, 3], 0.5)[3].grid == grid
        assert map_store_from_text(map_store_to_text(store)) == store

    def test_stats_off_the_rebuilds_text_are_refused(self, small_store):
        # 1e-6 off, or the same value in other digits: the text is not the rebuild's.
        for cx in ("4.773811", "4.7738104", "4.77381"):
            edited = R123.replace(" 4.773810 ", f" {cx} ")
            with pytest.raises(ValueError, match=refused_at(10, edited, R123)):
                map_store_from_text(map_store_to_text(small_store).replace(R123, edited))

    @pytest.mark.parametrize("area", ["area inf 8.000000", "area 12.000000 inf"])
    def test_non_finite_area_detected(self, small_store, area):
        text = map_store_to_text(small_store).replace("area 12.000000 8.000000", area)
        with pytest.raises(ValueError, match="finite, positive width and height"):
            map_store_from_text(text)

    def test_map_row_limit_admits_its_own_size(self, small_store, monkeypatch):
        dep, grid = small_store.deployment, small_store.grid
        rows = 4 * len(_partition(dep, grid).orders)  # C(4, 3) subsets x orderings
        monkeypatch.setattr(mapgen, "MAX_MAP_ROWS", rows)
        assert build_map_store(dep, 3, grid.cell_size) == small_store
        monkeypatch.setattr(mapgen, "MAX_MAP_ROWS", rows - 1)
        with pytest.raises(ValueError, match=rf"^4 AP subsets x {rows // 4} orderings = {rows} map rows "
                                             rf"exceed the limit of {rows - 1}$"):
            build_map_store(dep, 3, grid.cell_size)
        # A build of several k counts the subsets of every k: C(4, 2) + C(4, 3) = 10.
        monkeypatch.setattr(mapgen, "MAX_MAP_ROWS", 10 * rows // 4)
        assert build_stores(dep, [2, 3], grid.cell_size)[3] == small_store
        with pytest.raises(ValueError, match=r"^11 AP subsets x "):
            build_stores(dep, [2, 3, 4], grid.cell_size)

    def test_build_time_recorded(self, small_store):
        assert small_store.build_ms > 0.0
        # Stores of one build_stores call, none of whose maps is built, carry the time of their one partition.
        stores = build_stores(small_store.deployment, [2, 3], small_store.grid.cell_size)
        assert stores[2].build_ms == stores[3].build_ms > 0.0


class TestColumns:
    """Region access reads the columns; the regions dict is a view built on first use."""

    def test_region_access_builds_no_dict(self, small_store):
        fmap = dataclasses.replace(small_store.maps[(1, 2, 3)])  # a copy with no cached view
        region = fmap.region_at(4.2, 1.3)
        cells = fmap.cells_of(region.signature)
        assert "regions" not in vars(fmap)
        assert fmap.regions[region.signature] == region
        assert len(cells) == region.cell_count
        assert fmap.region_at(*fmap.grid.cell_center(*cells[-1])) == region

    def test_regions_view_follows_the_columns(self, small_store):
        for fmap in small_store.maps.values():
            assert list(fmap.regions) == [tuple(row) for row in fmap.signatures.tolist()]
            assert [reg.cell_count for reg in fmap.regions.values()] == fmap.count.tolist()
            assert [reg.radius for reg in fmap.regions.values()] == fmap.radius.tolist()

    def test_cells_of_an_absent_signature_is_empty(self, small_store):
        assert small_store.maps[(1, 2, 3)].cells_of((9, 8, 7)).shape == (0, 2)

    @pytest.mark.parametrize(
        "array", ["signatures", "count", "cx", "cy", "accuracy", "radius", "lut", "cell_labels"])
    def test_every_array_is_read_only(self, small_store, array):
        loaded = map_store_from_text(map_store_to_text(small_store))
        for store in (small_store, loaded):
            for fmap in store.maps.values():
                with pytest.raises(ValueError, match="read-only"):
                    getattr(fmap, array)[0] = 0

    @pytest.mark.parametrize("column", ["signatures", "count", "cx", "cy", "accuracy", "radius"])
    def test_equality_compares_every_column(self, small_store, column):
        fmap = small_store.maps[(1, 2, 3)]
        changed = getattr(fmap, column).copy()
        changed[-1] += 1
        assert dataclasses.replace(fmap) == fmap
        assert dataclasses.replace(fmap, **{column: changed}) != fmap


class TestQuantizeArray:
    """_quantize_array against the scalar _quantize, bit for bit."""

    @staticmethod
    def assert_bitwise_equal(values):
        values = np.asarray(values, dtype=np.float64)
        want = np.array([_quantize(v) for v in values.tolist()])
        assert np.array_equal(_quantize_array(values.copy()).view(np.int64), want.view(np.int64))

    def test_random_values(self):
        rng = np.random.default_rng(3)
        for scale in (1e-6, 1.0, 60.0, 1e3, 1e6, 1e9):
            self.assert_bitwise_equal(rng.uniform(-scale, scale, 20_000))

    def test_decimal_half_way_cases(self):
        k = np.arange(-10_000, 10_000)
        self.assert_bitwise_equal(k / 1e6 + 5e-7)
        self.assert_bitwise_equal(k / 1e6 - 5e-7)
        self.assert_bitwise_equal(k / 128)  # x * 1e6 exactly half-way: 1 / 128 = 0.0078125

    def test_signs_zeros_and_tiny_values(self):
        self.assert_bitwise_equal([0.0, -0.0, 1e-7, -1e-7, 4e-7, -4e-7, 5e-7, -5e-7, 1e-300, -1e-300])

    def test_large_magnitudes(self):
        self.assert_bitwise_equal([2.0**52 / 1e6, -(2.0**52) / 1e6, 4503599627.3705, 1e9 + 0.5e-6, 1e9, -1e9, 1e15, 1e300])

    def test_non_finite_values(self):
        self.assert_bitwise_equal([math.nan, math.inf, -math.inf, 1.5])


def integer_deployment(seed):
    """3-7 APs at whole-metre positions on a 14 m x 9 m floor."""
    rng = np.random.default_rng(seed)
    n_aps = 3 + seed % 5
    spots = rng.choice(15 * 10, size=n_aps, replace=False)
    return ApDeployment(
        width=14.0, height=9.0,
        aps=tuple((i + 1, float(p % 15), float(p // 15)) for i, p in enumerate(spots)),
    )


def _hypot_stats(part, lut):
    """Reference accuracy and radius of each region, by np.hypot, quantized by _quantize."""
    count = np.bincount(lut, weights=part.count)
    cx = np.bincount(lut, weights=part.sum_x) / count
    cy = np.bincount(lut, weights=part.sum_y) / count
    dist = np.hypot(part.xs - np.repeat(cx[lut], part.count), part.ys - np.repeat(cy[lut], part.count))
    accuracy = np.bincount(lut, weights=np.add.reduceat(dist, part.starts)) / count
    radius = np.zeros(len(count))
    np.maximum.at(radius, lut, np.maximum.reduceat(dist, part.starts))
    return [_quantize(v) for v in accuracy], [_quantize(v) for v in radius]


class TestDistanceKernel:
    """The sqrt distance kernel quantizes to the same statistics as np.hypot."""

    @pytest.mark.parametrize("seed", range(12))
    def test_quantized_stats_match_hypot(self, seed):
        dep = integer_deployment(seed) if seed % 2 else uniform_deployment(seed, 3 + seed % 5)
        for cell_size in (0.2, 0.25, 0.5, 1.0):
            grid = GridSpec.for_deployment(dep, cell_size)
            part = _partition(dep, grid)
            for fmap in build_stores(dep, range(2, dep.n_aps + 1), cell_size).values():
                for m in fmap.maps.values():
                    accuracy, radius = _hypot_stats(part, m.lut)
                    assert m.accuracy.tolist() == accuracy
                    assert m.radius.tolist() == radius


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


class TestReferenceStores:
    """Every store text the benchmark checks, against its committed sha256."""

    @pytest.mark.parametrize("name, config, cell_size", [
        ("dover", "dover", 0.2), ("dover-0.4", "dover", 0.4), ("ecc", "ecc", None),
    ])
    def test_store_texts_match_the_references(self, name, config, cell_size):
        with open(REFERENCES) as fh:
            want = json.load(fh)["store_sha256"][name]
        config = load_config(str(DATA / f"{config}.cfg"))
        ks = config.k_values if name == "ecc" else (3, 4, 5, 6, 7)
        stores = build_stores(load_deployment(config.deployment), ks, cell_size or config.cell_size)
        got = {str(k): hashlib.sha256(map_store_to_text(s).encode()).hexdigest() for k, s in stores.items()}
        assert got == want


class TestReferenceOutcomes:
    """The benchmark's default-seed outcome summaries, against references.json."""

    @pytest.fixture(scope="class")
    def workloads(self):
        spec = importlib.util.spec_from_file_location("workloads", REFERENCES.parent / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name", ["ScanStreamDover", "EvalSweepEcc"])
    def test_outcome_summaries_match_the_references(self, workloads, name, tmp_path):
        w = getattr(workloads, name)(workloads.DEFAULT_SEED, str(tmp_path))
        w.setup()
        w.check_stores()
        w.prepare()
        assert w.outcomes.failed == 0, w.outcomes.messages
