"""Fingerprint-map construction from AP coordinates alone.

For a chosen AP subset, every grid cell gets the signature formed by sorting
the subset's APs by distance to the cell centre.  Cells sharing a signature
form a region; the perpendicular bisectors of AP pairs are exactly the
region boundaries, so no site survey is involved anywhere.  Every map comes
from one partition of the grid by the cells' ordering of all the APs; a map is
made when it is first looked up, so a store costs its partition until then.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import (
    ApDeployment,
    Signature,
    SubsetKey,
    _quantize,
    deployment_from_text,
    deployment_to_text,
    subset_key,
)

DEFAULT_CELL_SIZE = 0.2
MAX_CELLS = 10_000_000
MAX_MAP_ROWS = 1_000_000  # (AP subset, full ordering) pairs in one build
MAX_PARTITION_VALUES = 10_000_000  # grid cells x (APs + blocks of 32 AP pairs) in one partition
# A block of 32 AP pairs bounds the per-pair passes over the cells; each AP
# is one sort key of the runs' orderings, so it is bounded too.
MAX_PARTITION_APS = 256

# Tolerance applied to width/cell_size before ceil() so that an exactly
# divisible area does not gain a spurious extra row from float division.
_DIV_EPS = 1e-9


def _quantize_array(x: np.ndarray) -> np.ndarray:
    """_quantize of every element of a float array, bit for bit.

    np.rint(x * 1e6) / 1e6 gives it, except where x * 1e6 lies within 1e-6 of
    a half-integer or is not below 2**52 (so not exact); those take _quantize.
    """
    scaled = x * 1e6
    out = np.rint(scaled) / 1e6
    slow = ~((np.abs(scaled) < 2.0**52) & (np.abs(np.abs(np.modf(scaled)[0]) - 0.5) >= 1e-6))
    out[slow] = [_quantize(v) for v in x[slow].tolist()]
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid covering the deployment area.

    Cell (i, j) has its centre at ((i + 0.5) * cell_size,
    (j + 0.5) * cell_size); i counts columns along x, j rows along y.
    """

    cell_size: float
    width: float
    height: float
    cols: int = field(init=False, repr=False, compare=False)
    rows: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cell_size", _quantize(self.cell_size))
        object.__setattr__(self, "width", _quantize(self.width))
        object.__setattr__(self, "height", _quantize(self.height))
        if not 0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be finite and positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("grid area must have positive width and height")
        # Counted in floats, so that even an unbounded grid is refused unallocated.
        cols, rows = (float(np.ceil(v / self.cell_size - _DIV_EPS)) for v in (self.width, self.height))
        if not cols * rows >= 1:  # NaN too: an unbounded side times no cells
            raise ValueError(f"cell_size {self.cell_size} leaves the {self.width} x {self.height} area no cell")
        if cols * rows > MAX_CELLS:
            raise ValueError(f"grid of {cols:.0f} x {rows:.0f} cells exceeds the limit of {MAX_CELLS}")
        object.__setattr__(self, "cols", int(cols))
        object.__setattr__(self, "rows", int(rows))

    @classmethod
    def for_deployment(cls, deployment: ApDeployment, cell_size: float) -> "GridSpec":
        return cls(cell_size=cell_size, width=deployment.width, height=deployment.height)

    @property
    def n_cells(self) -> int:
        return self.cols * self.rows

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return ((i + 0.5) * self.cell_size, (j + 0.5) * self.cell_size)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell containing the point (clamped onto the grid); ValueError for NaN."""
        if math.isnan(x) or math.isnan(y):
            raise ValueError(f"point ({x}, {y}) has no grid cell")
        i = int(min(max(x / self.cell_size, 0.0), self.cols - 1))
        j = int(min(max(y / self.cell_size, 0.0), self.rows - 1))
        return (i, j)


class Region(NamedTuple):
    """Cells sharing one signature, with summary geometry: a FingerprintMap row as a record.

    centroid   mean of the member cell centres
    accuracy   mean distance of member centres to the centroid
    radius     max distance of member centres to the centroid

    All three are quantized to 6 fractional digits (file precision); a
    loaded store's regions are those of its rebuild.
    The member cells are not held; FingerprintMap.cells_of derives them.
    """

    signature: Signature
    cell_count: int
    centroid: tuple[float, float]
    accuracy: float
    radius: float


@dataclass(frozen=True, eq=False)
class FingerprintMap:
    """Partition of the grid into signature regions for one AP subset.

    Its regions are columns with one row each, in signature order: signatures
    (R, k), count (of cells), cx, cy, accuracy and radius.  Flat cell
    c = `j * cols + i` lies in row lut[cell_labels[c]].
    cell_labels numbers each cell's ordering of all the deployment's APs, in
    the narrowest unsigned dtype, from runs of cells (_Partition); every map
    from one partition shares that array.  Every array is read-only.
    """

    subset: SubsetKey
    grid: GridSpec
    signatures: np.ndarray
    count: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    accuracy: np.ndarray
    radius: np.ndarray
    cell_labels: np.ndarray = field(repr=False)
    lut: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (*self.columns, self.cell_labels, self.lut):
            array.flags.writeable = False

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in the order of Region's fields."""
        return (self.signatures, self.count, self.cx, self.cy, self.accuracy, self.radius)

    @property
    def n_regions(self) -> int:
        return len(self.signatures)

    @cached_property
    def regions(self) -> dict[Signature, Region]:
        """The regions by signature, as records built from the columns on first use."""
        return {region.signature: region for region in self._records(slice(None))}

    def _records(self, rows) -> list[Region]:
        sigs, *stats = (column[rows].tolist() for column in self.columns)
        return [Region(tuple(sig), n, (x, y), acc, rad) for sig, n, x, y, acc, rad in zip(sigs, *stats)]

    def region_at(self, x: float, y: float) -> Region:
        """Region owning the grid cell containing (x, y)."""
        i, j = self.grid.cell_of(x, y)
        return self._records([self.lut[self.cell_labels[j * self.grid.cols + i]]])[0]

    def cells_of(self, sig: Signature) -> np.ndarray:
        """(m, 2) int array of the (i, j) cells of region `sig` (none if the map has no such
        region), sorted lexicographically."""
        inside = np.all(self.signatures == sig, axis=1)[self.lut[self.cell_labels]]
        return np.argwhere(inside.reshape(self.grid.rows, self.grid.cols).T).astype(np.int32)  # (i, j), i-major

    def __eq__(self, other):
        if not isinstance(other, FingerprintMap):
            return NotImplemented
        return (
            self.subset == other.subset
            and self.grid == other.grid
            and all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
            and np.array_equal(self.lut[self.cell_labels], other.lut[other.cell_labels])
        )


@dataclass(frozen=True)
class MapStore:
    """All C(n, k) fingerprint maps of a deployment for one subset size k.

    maps is a read-only mapping over every k-subset, in subset order, whose
    maps are made from one partition of the grid as they are needed (_Maps).
    build_ms is the partition's wall time plus that of every map build of
    this store so far; it is not a field, so it takes no part in equality.
    """

    deployment: ApDeployment
    k: int
    grid: GridSpec
    maps: Mapping[SubsetKey, FingerprintMap]

    @property
    def build_ms(self) -> float:
        return self.maps.partition_ms + self.maps.build_ms

    @property
    def n_maps(self) -> int:
        return len(self.maps)


class _Maps(Mapping):
    """One store's maps by subset.  A lookup builds a missing map alone and keeps
    it; iteration, and so values, items, == and the writer, first builds every
    missing map in one batch, which costs less per map.  len and `in` build nothing.
    """

    def __init__(self, part: _Partition, partition_ms: float, grid: GridSpec, subsets: list[SubsetKey]):
        self.part, self.partition_ms, self.grid = part, partition_ms, grid
        self.build_ms = 0.0
        self._maps: dict[SubsetKey, FingerprintMap | None] = dict.fromkeys(subsets)

    def _build(self, subsets: list[SubsetKey]) -> dict[SubsetKey, FingerprintMap]:
        t0 = time.perf_counter()
        maps = _build_maps(self.part, subsets, self.grid)
        self.build_ms += (time.perf_counter() - t0) * 1000.0
        self._maps.update(maps)
        return maps

    def __getitem__(self, subset: SubsetKey) -> FingerprintMap:
        fmap = self._maps[subset]  # KeyError for what is not one of the store's subsets
        return self._build([subset])[subset] if fmap is None else fmap

    def __iter__(self):
        missing = [subset for subset, fmap in self._maps.items() if fmap is None]
        if missing:
            self._build(missing)
        return iter(self._maps)

    def __len__(self) -> int:
        return len(self._maps)

    def __contains__(self, subset) -> bool:
        return subset in self._maps


class MapSet(dict):
    """The map stores of one deployment and grid, by k, checked to belong together on
    construction.  A k not held is made on first lookup and kept, from the partition
    of the stores held (a new one only when none is); `in`, len and iteration see
    only the ks held."""

    def __init__(self, deployment: ApDeployment, grid: GridSpec, stores: Mapping[int, MapStore]):
        for k, store in stores.items():
            if (store.k, store.deployment, store.grid) != (k, deployment, grid):
                raise ValueError(f"store for k={k} holds the maps of k={store.k}" if store.k != k else
                                 f"store for k={k} was built for another deployment or grid than the set's")
        super().__init__(stores)
        self.deployment, self.grid = deployment, grid

    def __missing__(self, k: int) -> MapStore:
        store = self[k] = _stores(self.deployment, self.grid, (k,), next(iter(self.values()), None))[k]
        return store


def enumerate_ap_subsets(ids: Iterable[int], k: int) -> list[SubsetKey]:
    """All k-subsets of the given AP ids in lexicographic order."""
    pool = sorted(int(i) for i in ids)
    if not 2 <= k <= len(pool):
        raise ValueError(f"subset size {k} out of range [2, {len(pool)}]")
    n_subsets = math.comb(len(pool), k)
    if n_subsets > MAX_MAP_ROWS:  # each subset's map takes a map row or more
        raise ValueError(f"C({len(pool)}, {k}) = {n_subsets} AP subsets exceed the limit of "
                         f"{MAX_MAP_ROWS} map rows")
    return [tuple(c) for c in itertools.combinations(pool, k)]


def cell_signature(point: Sequence[float], subset: Iterable[int], deployment: ApDeployment) -> Signature:
    """Signature at a point: subset APs sorted by ascending distance.

    Distance ties break toward the smaller ap_id, mirroring the descending
    RSS sort used on the online side.
    """
    x, y = float(point[0]), float(point[1])
    sub = subset_key(subset)
    d2 = {i: (x - ax) ** 2 + (y - ay) ** 2 for i, (ax, ay) in zip(sub, deployment.positions(sub))}
    return tuple(sorted(sub, key=lambda i: (d2[i], i)))


class _Partition(NamedTuple):
    """Grid cells grouped by their ordering of all the deployment's APs.

    Groups are found from runs, stretches of cells in flat order on the same
    side of every AP pair's bisector: only the runs are sorted.

    ids          AP ids in ascending order, the columns `orders` indexes
    orders       (groups, n) each group's ordering, lexicographic by group
    cell_labels  group of each flat cell `j * cols + i`, in the narrowest
                 unsigned dtype that holds the group count
    xs, ys       cell centres, sorted by group so that each group is a slice
    starts       where each group's slice of xs and ys begins
    count        cells per group
    sum_x/sum_y  per-group sums of xs and ys
    """

    ids: np.ndarray
    orders: np.ndarray
    cell_labels: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    starts: np.ndarray
    count: np.ndarray
    sum_x: np.ndarray
    sum_y: np.ndarray


def _partition(deployment: ApDeployment, grid: GridSpec) -> _Partition:
    """Group the cells by their full distance ordering of the deployment's APs.

    These groups are the ordered order-n Voronoi cells (Okabe et al.,
    Spatial Tessellations, ch. 3), sampled at the cell centres: the faces
    of the arrangement of the AP pairs' perpendicular bisectors.
    """
    n, cells = deployment.n_aps, grid.n_cells
    blocks = -(-math.comb(n, 2) // 32)
    if n > MAX_PARTITION_APS:
        raise ValueError(f"{n} APs exceed the limit of {MAX_PARTITION_APS} in one partition")
    if cells * (n + blocks) > MAX_PARTITION_VALUES:
        raise ValueError(f"{cells} cells x ({n} APs + {blocks} blocks of 32 AP pairs) = {cells * (n + blocks)} "
                         f"values exceed the limit of {MAX_PARTITION_VALUES}")
    ids = np.asarray(deployment.ap_ids)
    pos = np.asarray(deployment.positions(deployment.ap_ids), dtype=np.float64)
    col_x = (np.arange(grid.cols) + 0.5) * grid.cell_size
    row_y = (np.arange(grid.rows) + 0.5) * grid.cell_size
    # Squared distances, (APs, cells), same arithmetic as cell_signature:
    # dx*dx + dy*dy, squared once per column and row, then one broadcast add.
    dx, dy = np.square(col_x - pos[:, :1]), np.square(row_y - pos[:, 1:])
    d2 = (dx[:, None, :] + dy[:, :, None]).reshape(n, cells)
    # Each AP pair a < b (columns in ascending-id order) has a bisector, with
    # ties on the smaller id's side; a stable argsort puts a before b exactly
    # on that side, so a cell's sides give its ordering.  A run, a stretch of
    # cells in flat order on one side of every bisector, starts where any flips.
    flips, side = np.zeros(cells - 1, dtype=bool), np.empty(cells, dtype=bool)
    for a, b in itertools.combinations(range(n), 2):
        np.less_equal(d2[a], d2[b], out=side)
        flips |= side[1:] != side[:-1]
    run_first = np.flatnonzero(np.append(True, flips))
    # Only each run's first cell is argsorted.  One sort of the runs'
    # orderings then finds the groups and numbers them lexicographically.
    d2 = d2[:, run_first].T  # the other cells' distances go before the argsort
    run_orders = np.argsort(d2, axis=1, kind="stable")
    del d2, flips, side  # flips and side held to the return split the heap: +2 MB RSS in a later build
    by_order = np.lexsort(run_orders.T[::-1])
    new_group = _column_changes(run_orders[by_order].T)
    orders = run_orders[by_order[new_group]]
    run_label = np.empty(len(run_first), dtype=np.min_scalar_type(len(orders)))
    run_label[by_order] = np.cumsum(new_group) - 1
    cell_labels = np.repeat(run_label, np.diff(run_first, append=cells))
    # A stable argsort of 8- or 16-bit labels is a radix sort.
    perm = np.argsort(cell_labels, kind="stable")
    count = np.bincount(cell_labels)
    starts = np.concatenate(([0], np.cumsum(count[:-1])))
    row, col = np.divmod(perm, grid.cols)
    xs, ys = col_x[col], row_y[row]
    return _Partition(ids, orders, cell_labels, xs, ys, starts, count,
                      np.add.reduceat(xs, starts), np.add.reduceat(ys, starts))


def _column_changes(columns: np.ndarray) -> np.ndarray:
    """Whether each column differs from the one before it; the first does."""
    changes = np.ones(columns.shape[1], dtype=bool)
    np.any(columns[:, 1:] != columns[:, :-1], axis=0, out=changes[1:])
    return changes


def _build_maps(part: _Partition, subsets: list[SubsetKey], grid: GridSpec) -> dict[SubsetKey, FingerprintMap]:
    """Fingerprint maps of some subsets of one size k, by subset, from the partition of the grid.

    A subset's signature at a cell is the cell's ordering of all the APs,
    restricted to the subset.  So every subset region is a union of the
    partition's groups, found from the few distinct full orderings alone.
    A map's columns do not depend on which other subsets are built with it.
    """
    groups, k = len(part.orders), len(subsets[0])
    member = np.zeros((len(subsets), len(part.ids)), dtype=bool)
    np.put_along_axis(member, np.searchsorted(part.ids, subsets), True, axis=1)
    # Each full ordering keeps a subset's columns in order: rows are the
    # (subset, group) pairs, each the group's ordering of the subset.
    rows = np.broadcast_to(part.orders, member.shape[:1] + part.orders.shape)
    rows = rows[member[:, part.orders]].reshape(-1, k)
    # Sorting by subset, then lexicographically by the row, numbers
    # every map's regions by signature, since ids ascend with columns.
    by_row = np.lexsort((*rows.T[::-1], np.arange(len(rows)) // groups))
    rows = rows[by_row]
    new_region = _column_changes(rows.T)
    new_region[::groups] = True  # each subset's block starts a region
    sigs = part.ids[rows[new_region]]
    del rows  # the build's largest array, before its statistics
    number = np.cumsum(new_region) - 1
    bounds = np.append(number[::groups], number[-1] + 1)  # each map's slice of the regions
    luts = np.empty_like(number)
    luts[by_row] = number  # numbered across all the subsets, for now
    # Every region of the build in one set of columns.  Counts, centroids and
    # the accuracy sums add up per-group values in group order, so only
    # the per-cell distance to the centroid is computed map by map.
    count = np.bincount(luts, weights=np.tile(part.count, len(subsets)))
    cx, cy = (np.bincount(luts, weights=np.tile(s, len(subsets))) / count for s in (part.sum_x, part.sum_y))
    accuracy, radius, peaks = np.empty(len(count)), np.zeros(len(count)), np.empty(len(luts))
    luts = luts.reshape(-1, groups)
    for lut, a, b, peak in zip(luts, bounds, bounds[1:], peaks.reshape(-1, groups)):
        # dx*dx + dy*dy in two buffers, in place.
        dx, dy = np.repeat(cx[lut], part.count), np.repeat(cy[lut], part.count)
        np.subtract(part.xs, dx, out=dx)
        dx *= dx
        np.subtract(part.ys, dy, out=dy)
        dy *= dy
        dx += dy
        dist = np.sqrt(dx, out=dx)
        accuracy[a:b] = np.bincount(lut - a, weights=np.add.reduceat(dist, part.starts))
        np.maximum.reduceat(dist, part.starts, out=peak)
    np.maximum.at(radius, luts.ravel(), peaks)
    accuracy /= count
    luts -= bounds[:-1, None]  # each map numbers its own regions from 0
    stats = _quantize_array(np.stack((cx, cy, accuracy, radius)))
    count = count.astype(np.int64)
    return {
        subset: FingerprintMap(subset, grid, sigs[a:b], count[a:b], *stats[:, a:b], part.cell_labels, lut)
        for subset, lut, a, b in zip(subsets, luts, bounds, bounds[1:])
    }


def _stores(
    deployment: ApDeployment, grid: GridSpec, k_values: Iterable[int], held: MapStore | None = None
) -> dict[int, MapStore]:
    """A store per k, none of whose maps is built yet, from the partition of the store
    `held` or a new one, once every refusal that the whole build would meet is passed."""
    subsets = {k: enumerate_ap_subsets(deployment.ap_ids, k) for k in sorted(set(k_values))}
    if held is None:
        t0 = time.perf_counter()
        part = _partition(deployment, grid)
        partition_ms = (time.perf_counter() - t0) * 1000.0
    else:
        part, partition_ms = held.maps.part, held.maps.partition_ms
    groups = len(part.orders)
    n_subsets = sum(map(len, subsets.values()))
    if n_subsets * groups > MAX_MAP_ROWS:
        raise ValueError(f"{n_subsets} AP subsets x {groups} orderings = {n_subsets * groups} map rows "
                         f"exceed the limit of {MAX_MAP_ROWS}")
    return {k: MapStore(deployment, k, grid, _Maps(part, partition_ms, grid, same_k))
            for k, same_k in subsets.items()}


def build_stores(
    deployment: ApDeployment, k_values: Iterable[int], cell_size: float = DEFAULT_CELL_SIZE
) -> MapSet:
    """The map set of one store per k, all from one partition of the grid.

    The grid covers the deployment's area at `cell_size`.  Every refusal of the
    build is met here (the grid, the subset count, the partition and the map
    rows of every k together), but no map is built: each is made on first
    lookup, or with the rest of its k on whole-store access (MapStore).
    """
    grid = GridSpec.for_deployment(deployment, cell_size)
    return MapSet(deployment, grid, _stores(deployment, grid, k_values))


def build_map_store(deployment: ApDeployment, k: int, cell_size: float = DEFAULT_CELL_SIZE) -> MapStore:
    """Fingerprint maps for every k-subset of the deployment's APs: build_stores for one k."""
    return build_stores(deployment, (k,), cell_size)[k]


# ----------------------------------------------------------------------------
# Map-store file format:
#
#   APSEQMAP v1
#   <deployment block, same syntax as the deployment file>
#   grid <cell_size>
#   map <id> <id> ...
#   region <signature-text> <cx> <cy> <accuracy> <radius> <cell_count>
#   ...                                 (one map block per k-subset)
#
# A store is derived data, so the whole file has one rule: it is the writer's
# text (_store_lines) of the store that build_map_store rebuilds from the
# deployment block, the grid line's cell size and the first map line's id
# count, k.  Maps come in subset order and regions in signature order; cell
# memberships are not stored.  The loader names the first line that differs.
# All reals carry six fractional digits, so re-saves are byte-identical.

STORE_HEADER = "APSEQMAP v1"


def save_map_store(store: MapStore, path) -> None:
    with open(path, "w") as fh:
        fh.write(map_store_to_text(store))


def map_store_to_text(store: MapStore) -> str:
    return "\n".join(_store_lines(store)) + "\n"


def _store_lines(store: MapStore) -> list[str]:
    """Every line of the store's file: the head, then each map line and its region lines."""
    out = [STORE_HEADER, *deployment_to_text(store.deployment).splitlines(), f"grid {store.grid.cell_size:.6f}"]
    region = "region " + "-".join(["%d"] * store.k) + " %.6f %.6f %.6f %.6f %d"
    for subset, m in sorted(store.maps.items()):  # subsets are distinct, so maps are never compared
        out.append("map " + " ".join(map(str, subset)))
        out.extend(map(region.__mod__, zip(*m.signatures.T.tolist(),
                                           *(c.tolist() for c in (m.cx, m.cy, m.accuracy, m.radius, m.count)))))
    return out


def load_map_store(path) -> MapStore:
    with open(path) as fh:
        return map_store_from_text(fh.read(), source=str(path))


def map_store_from_text(text: str, source: str = "<string>") -> MapStore:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != STORE_HEADER:
        raise ValueError(f"{source}: unsupported version (expected {STORE_HEADER!r})")
    # The rebuild takes the deployment block, the cell size and k from the file.
    grid_at = next((n for n, ln in enumerate(lines) if ln.startswith("grid ")), len(lines))
    if grid_at + 1 >= len(lines):  # no grid line, or no map line after it
        raise ValueError(f"{source}: truncated store file")
    deployment = deployment_from_text("\n".join(lines[1:grid_at]), source=source)
    try:
        cell_size = float(lines[grid_at].split()[1])
    except ValueError as exc:
        raise ValueError(f"{source}: malformed grid line {lines[grid_at]!r} ({exc})") from None
    map_ln = lines[grid_at + 1].split()
    if map_ln[0] != "map":
        raise ValueError(f"{source}: expected map line, got {lines[grid_at + 1]!r}")
    try:
        store = build_map_store(deployment, len(map_ln) - 1, cell_size)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    want = _store_lines(store)
    if lines != want:  # name the first line that differs, or where one side ends
        at = next((n for n, (a, b) in enumerate(zip(lines, want)) if a != b), min(len(lines), len(want)))
        got_ln, want_ln = (repr(side[at]) if at < len(side) else "end of store" for side in (lines, want))
        raw = text.splitlines()  # numbered as given: blank lines count, and one past the last
        line = ([n for n, ln in enumerate(raw, 1) if ln.strip()] + [len(raw) + 1])[at]
        raise ValueError(f"{source}: line {line}: {got_ln}, rebuild gives {want_ln}")
    return store
