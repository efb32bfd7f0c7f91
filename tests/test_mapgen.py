"""Fingerprint-map construction: geometry oracles and partition properties."""

import math
from importlib import resources

import numpy as np
import pytest

from apseq.evaluate import load_config
from apseq.mapgen import (
    GridSpec,
    _Partition,
    _partition,
    build_map_store,
    build_stores,
    cell_signature,
    enumerate_ap_subsets,
    load_map_store,
    map_store_from_text,
    map_store_to_text,
    save_map_store,
)
from apseq.model import ApDeployment, load_deployment

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

    def test_centers_matrix_matches_cell_center(self):
        grid = GridSpec(cell_size=1.0, width=3.0, height=2.0)
        centers = grid.centers()
        assert centers.shape == (6, 2)
        flat = 1 * grid.cols + 2  # cell (2, 1)
        assert tuple(centers[flat]) == grid.cell_center(2, 1)


class TestEnumerateSubsets:
    def test_counts_follow_binomials(self):
        for n, k, want in [(7, 2, 21), (7, 3, 35), (7, 4, 35), (7, 7, 1)]:
            assert len(enumerate_ap_subsets(n, k)) == want

    def test_explicit_ids(self):
        assert enumerate_ap_subsets([4, 2, 9], 2) == [(2, 4), (2, 9), (4, 9)]

    def test_lexicographic_order(self):
        subsets = enumerate_ap_subsets(4, 3)
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
    # 12 APs make 66 AP pairs, more than one 63-bit word of bisector sides.
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
    xs, ys = np.ascontiguousarray(grid.centers().T)
    pos = np.asarray(deployment.positions(deployment.ap_ids), dtype=np.float64)
    # Squared distances, same arithmetic as cell_signature: dx*dx + dy*dy
    dx = xs[:, None] - pos[None, :, 0]
    dy = ys[:, None] - pos[None, :, 1]
    # Stable argsort on distance; columns are in ascending-id order, so ties
    # resolve toward the smaller ap_id exactly as the scalar version does.
    orders, cell_labels = _unique_rows(np.argsort(dx * dx + dy * dy, axis=1, kind="stable"))
    # Labels narrowed to the smallest dtype: a stable argsort of 16-bit ints is a radix sort.
    perm = np.argsort(cell_labels.astype(np.min_scalar_type(len(orders))), kind="stable")
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
        for cell_size in (0.25, 0.4, 0.5):
            self.assert_same_partition(dep, cell_size)

    def test_lattice_deployments_reach_two_words(self):
        assert {lattice_deployment(seed).n_aps for seed in range(30)} == set(range(2, 14))


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


# One edit of small_store's text per loader message, with the message's
# wording; the wrong-size and unknown-AP map lines have tests of their own.
# Every map of small_store holds all six orderings of its subset.
LOADER_FAULTS = [
    (lambda t: t.replace("APSEQMAP v1", "APSEQMAP v2"),
     r"<string>: unsupported version \(expected 'APSEQMAP v1'\)"),
    (lambda t: t[: t.index("grid ")],
     r"<string>: truncated store file"),
    (lambda t: t.replace("APSEQ-DEPLOY v1", "APSEQ-DEPLOY v0"),
     r"<string>: missing deployment block"),
    (lambda t: t.replace("grid 0.500000", "grid 0.500000 1"),
     r"<string>: malformed grid line"),
    (lambda t: t.replace("grid 0.500000", "grid abc"),
     r"<string>: malformed grid line 'grid abc'"),
    (lambda t: t.replace("map 1 2 4\n", "map 1 x 4\n"),
     r"<string>: malformed map line 'map 1 x 4'"),
    (lambda t: t.replace("map 1 2 4\n", "map 1 1 4\n"),
     r"<string>: malformed map line 'map 1 1 4' \(duplicate AP id in subset\)"),
    (lambda t: t.replace("grid 0.500000\n", "grid 0.500000\nregion 1-2-3\n"),
     r"<string>: expected map line, got 'region 1-2-3'"),
    (lambda t: t[: t.index("map ")],
     r"<string>: store contains no maps"),
    (lambda t: t + t[t.index("map 1 2 3"): t.index("map 1 2 4")],
     r"<string>: duplicate map block for subset \(1, 2, 3\)"),
    (lambda t: t.replace(" 21\n", "\n", 1),
     r"<string>: malformed region line 'region 1-2-3 4.773810 0.964286 0.975918 2.146161'$"),
    (lambda t: t.replace(" 0.964286 ", " x ", 1),
     r"<string>: malformed region line 'region 1-2-3 4.773810 x "),
    (lambda t: t.replace("region 1-2-3 ", "region 1-x-3 ", 1),
     r"<string>: malformed region line 'region 1-x-3 4.773810 "),
    (lambda t: t.replace("region 1-2-3 ", "region 1-2-4 "),
     r"<string>: region signature 1-2-4 not over map subset"),
    (lambda t: t.replace("region 1-3-2 ", "region 1-2-3 "),
     r"<string>: duplicate region signature 1-2-3"),
    (lambda t: _drop_block(t, "map 2 3 4"),
     r"<string>: 3 maps does not match C\(4,3\)=4"),
    (lambda t: t.replace("region 1-3-2 2.113208 3.193396 2.055213 4.464031 106\n", ""),
     r"<string>: map \(1, 2, 3\) declares 5 regions, rebuild gives 6"),
    # AP 3 moved onto the line through APs 1 and 2, between them: the map
    # of (1, 2, 3) loses the two orderings that put AP 3 last.
    (lambda t: t.replace("ap 3 6.000000 7.000000", "ap 3 6.000000 2.000000")
     .replace("region 1-2-3 4.773810 0.964286 0.975918 2.146161 21\n", "")
     .replace("region 1-3-2 2.113208 3.193396 2.055213 4.464031 106\n", ""),
     r"<string>: region signatures disagree with rebuild for map \(1, 2, 3\)"),
    (lambda t: t.replace(" 2.146161 21\n", " 2.146161 22\n", 1),
     r"<string>: cell_count mismatch for region 1-2-3 \(file 22, rebuilt 21\)"),
    (lambda t: t.replace(" 0.975918 ", " 0.975921 ", 1),
     r"<string>: region stats mismatch for 1-2-3"),
    # Region 1-4-3 of map (1, 3, 4) has accuracy = radius = 0.25 over 2 cells;
    # an accuracy 1e-6 higher lies inside the loader's 2e-6 tolerance.
    (lambda t: t.replace("region 1-4-3 7.750000 0.500000 0.250000 ",
                         "region 1-4-3 7.750000 0.500000 0.250001 "),
     r"<string>: region radius cannot be below its accuracy"),
    (lambda t: t.replace("region 1-4-3 7.750000 0.500000 0.250000 ",
                         "region 1-4-3 7.750000 0.500000 0.250001 "),
     r"<string>: region radius cannot be below its accuracy for 1-4-3 "
     r"\(radius 0.250000, accuracy 0.250001\)"),
]


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
        with pytest.raises(ValueError, match="region"):
            map_store_from_text("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")

    def test_tampered_stats_detected(self, small_store):
        text = map_store_to_text(small_store)
        target = next(ln for ln in text.splitlines() if ln.startswith("region "))
        parts = target.split()
        parts[2] = f"{float(parts[2]) + 0.5:.6f}"
        with pytest.raises(ValueError, match="mismatch"):
            map_store_from_text(text.replace(target, " ".join(parts), 1))

    def test_tampered_cell_count_detected(self, small_store):
        text = map_store_to_text(small_store)
        target = next(ln for ln in text.splitlines() if ln.startswith("region "))
        parts = target.split()
        parts[6] = str(int(parts[6]) + 1)
        with pytest.raises(ValueError, match="cell_count"):
            map_store_from_text(text.replace(target, " ".join(parts), 1))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [2, 3, 4, 5])
    def test_non_finite_stats_detected(self, small_store, field, value):
        text = map_store_to_text(small_store)
        target = next(ln for ln in text.splitlines() if ln.startswith("region "))
        parts = target.split()
        parts[field] = value
        with pytest.raises(ValueError, match="mismatch"):
            map_store_from_text(text.replace(target, " ".join(parts), 1))

    def test_map_naming_an_unknown_ap_detected(self, small_store):
        # AP 4 renamed to 9 throughout the block of subset (1, 2, 4).
        lines = map_store_to_text(small_store).splitlines()
        start = lines.index("map 1 2 4")
        lines[start] = "map 1 2 9"
        for n in range(start + 1, len(lines)):
            if not lines[n].startswith("region "):
                break
            parts = lines[n].split()
            parts[1] = parts[1].replace("4", "9")
            lines[n] = " ".join(parts)
        with pytest.raises(ValueError, match=r"AP ids \[9\] not in the deployment"):
            map_store_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("line", ["map 1 2", "map 1 2 3 4"])
    def test_map_of_the_wrong_size_detected(self, small_store, line):
        text = map_store_to_text(small_store).replace("map 1 2 4\n", line + "\n", 1)
        with pytest.raises(ValueError, match="is not size 3"):
            map_store_from_text(text)

    def test_missing_map_block_detected(self, small_store):
        lines = map_store_to_text(small_store).splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("map "))
        end = next(
            (i for i, ln in enumerate(lines[start + 1:], start + 1) if ln.startswith("map ")),
            len(lines),
        )
        with pytest.raises(ValueError, match="does not match"):
            map_store_from_text("\n".join(lines[:start] + lines[end:]) + "\n")

    @pytest.mark.parametrize(
        "edit, message", LOADER_FAULTS,
        ids=[m.removeprefix("<string>: ").replace("\\", "") for _, m in LOADER_FAULTS],
    )
    def test_loader_message(self, small_store, edit, message):
        text = edit(map_store_to_text(small_store))
        with pytest.raises(ValueError, match=message):
            map_store_from_text(text)

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

    def test_stats_within_tolerance_load_quantized(self, small_store):
        # A stat 1e-6 off keeps the file's value; extra digits are rounded off.
        text = map_store_to_text(small_store)
        edited = text.replace(" 4.773810 0.964286 ", " 4.7738114 0.964286 ", 1)
        loaded = map_store_from_text(edited)
        assert loaded.maps[(1, 2, 3)].regions[(1, 2, 3)].centroid == (4.773811, 0.964286)
        assert map_store_to_text(loaded) == text.replace(" 4.773810 ", " 4.773811 ", 1)

    @pytest.mark.parametrize("area", ["area inf 8.000000", "area 12.000000 inf"])
    def test_non_finite_area_detected(self, small_store, area):
        text = map_store_to_text(small_store).replace("area 12.000000 8.000000", area)
        with pytest.raises(ValueError, match="finite, positive width and height"):
            map_store_from_text(text)

    def test_build_time_recorded(self, small_store):
        assert small_store.build_ms > 0.0
        # Stores of one build_stores call carry the time of their one build.
        stores = build_stores(small_store.deployment, [2, 3], small_store.grid.cell_size)
        assert stores[2].build_ms == stores[3].build_ms > 0.0
