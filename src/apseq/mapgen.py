"""Fingerprint-map construction from AP coordinates alone.

For a chosen AP subset, every grid cell gets the signature formed by sorting
the subset's APs by distance to the cell centre.  Cells sharing a signature
form a region; the perpendicular bisectors of AP pairs are exactly the
region boundaries, so no site survey is involved anywhere.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import (
    DEPLOY_HEADER,
    ApDeployment,
    Signature,
    SubsetKey,
    _quantize,
    deployment_from_text,
    deployment_to_text,
    signature_to_text,
    subset_key,
)

DEFAULT_CELL_SIZE = 0.2
MAX_CELLS = 10_000_000
MAX_MAP_ROWS = 1_000_000  # (AP subset, full ordering) pairs in one build

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
        """Grid cell containing the point (clamped onto the grid)."""
        i = min(max(int(x / self.cell_size), 0), self.cols - 1)
        j = min(max(int(y / self.cell_size), 0), self.rows - 1)
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
    cell_labels numbers each cell's ordering of all the deployment's APs,
    so every map built together shares one such array.  Every array is read-only.
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

    build_ms is informational (wall-clock build time) and excluded from
    equality so that save/load round-trips compare equal.  Stores made
    together by one build_stores call share one build, and each carries
    the wall time of that whole build.
    """

    deployment: ApDeployment
    k: int
    grid: GridSpec
    maps: dict[SubsetKey, FingerprintMap]
    build_ms: float = field(default=0.0, compare=False)

    @property
    def n_maps(self) -> int:
        return len(self.maps)


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

    ids          AP ids in ascending order, the columns `orders` indexes
    orders       (groups, n) each group's ordering, lexicographic by group
    cell_labels  group of each flat cell `j * cols + i`
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
    ids = np.asarray(deployment.ap_ids)
    pos = np.asarray(deployment.positions(deployment.ap_ids), dtype=np.float64)
    col_x = (np.arange(grid.cols) + 0.5) * grid.cell_size
    row_y = (np.arange(grid.rows) + 0.5) * grid.cell_size
    # Squared distances, (APs, cells), same arithmetic as cell_signature:
    # dx*dx + dy*dy, squared once per column and row, then one broadcast add.
    dx = col_x - pos[:, :1]
    dx *= dx
    dy = row_y - pos[:, 1:]
    dy *= dy
    d2 = (dx[:, None, :] + dy[:, :, None]).reshape(len(ids), grid.n_cells)
    # One bit per AP pair a < b (columns in ascending-id order): the side of
    # their bisector, with ties on the smaller id's side.  A stable argsort
    # puts a before b exactly when the bit is set, so the bits determine a
    # cell's ordering; 63 bits a word keep every word non-negative.
    words = np.zeros((-(-math.comb(len(ids), 2) // 63), grid.n_cells), dtype=np.int64)
    for bit, (a, b) in enumerate(itertools.combinations(range(len(ids)), 2)):
        words[bit // 63] |= (d2[a] <= d2[b]).astype(np.int64) << (bit % 63)
    by_key = np.lexsort(words)
    sorted_words = words[:, by_key]
    new_group = np.empty(grid.n_cells, dtype=bool)
    new_group[0] = True
    np.any(sorted_words[:, 1:] != sorted_words[:, :-1], axis=0, out=new_group[1:])
    # Only one cell per group is argsorted; the groups are then numbered
    # lexicographically by their orderings.
    orders = np.argsort(d2[:, by_key[new_group]].T, axis=1, kind="stable")
    by_order = np.lexsort(orders.T[::-1])
    rank = np.empty(len(orders), dtype=np.intp)
    rank[by_order] = np.arange(len(orders))
    orders = orders[by_order]
    cell_labels = np.empty(grid.n_cells, dtype=np.intp)
    cell_labels[by_key] = rank[np.cumsum(new_group) - 1]
    # Labels narrowed to the smallest dtype: a stable argsort of 16-bit ints is a radix sort.
    perm = np.argsort(cell_labels.astype(np.min_scalar_type(len(orders))), kind="stable")
    count = np.bincount(cell_labels)
    starts = np.concatenate(([0], np.cumsum(count[:-1])))
    xs, ys = col_x[perm % grid.cols], row_y[perm // grid.cols]
    return _Partition(ids, orders, cell_labels, xs, ys, starts, count,
                      np.add.reduceat(xs, starts), np.add.reduceat(ys, starts))


def _map_stats(part: _Partition, lut: np.ndarray) -> np.ndarray:
    """Rows of cell count, centroid x and y, accuracy and radius, unquantized,
    over the regions of a map whose region numbers by group are `lut`.

    Counts, centroids and the accuracy sums add up per-group values, so
    only the per-cell distance to the centroid is computed over the cells.
    """
    count = np.bincount(lut, weights=part.count)
    cx = np.bincount(lut, weights=part.sum_x) / count
    cy = np.bincount(lut, weights=part.sum_y) / count
    # dx*dx + dy*dy in two buffers, in place.
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


def _build_maps(
    deployment: ApDeployment, subsets: dict[int, list[SubsetKey]], grid: GridSpec
) -> dict[int, dict[SubsetKey, FingerprintMap]]:
    """Fingerprint maps by subset size and subset, from one partition of the grid.

    A subset's signature at a cell is the cell's ordering of all the APs,
    restricted to the subset.  So every subset region is a union of the
    partition's groups, found from the few distinct full orderings alone.
    """
    part = _partition(deployment, grid)
    groups = len(part.orders)
    n_subsets = sum(map(len, subsets.values()))
    if n_subsets * groups > MAX_MAP_ROWS:
        raise ValueError(f"{n_subsets} AP subsets x {groups} orderings = {n_subsets * groups} map rows "
                         f"exceed the limit of {MAX_MAP_ROWS}")
    maps: dict[int, dict[SubsetKey, FingerprintMap]] = {}
    for k, same_k in subsets.items():
        member = np.zeros((len(same_k), len(part.ids)), dtype=bool)
        np.put_along_axis(member, np.searchsorted(part.ids, same_k), True, axis=1)
        # Each full ordering keeps a subset's columns in order: rows are the
        # (subset, group) pairs, each the group's ordering of the subset.
        rows = np.broadcast_to(part.orders, member.shape[:1] + part.orders.shape)
        rows = rows[member[:, part.orders]].reshape(-1, k)
        # Sorting by subset, then lexicographically by the row, numbers
        # every map's regions by signature, since ids ascend with columns.
        by_row = np.lexsort(np.vstack([rows.T[::-1], np.arange(len(rows)) // groups]))
        sorted_rows = rows[by_row]
        new_region = np.empty(len(rows), dtype=bool)
        np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=new_region[1:])
        new_region[::groups] = True  # each subset's block starts a region
        number = np.cumsum(new_region) - 1
        first = number[::groups]
        luts = np.empty_like(number)
        luts[by_row] = number - np.repeat(first, groups)
        luts = luts.reshape(-1, groups)
        # Every region of this k in one set of columns, quantized at once.
        stats = np.hstack([_map_stats(part, lut) for lut in luts])
        stats[1:] = _quantize_array(stats[1:])
        per_map = zip(same_k, luts, np.split(part.ids[sorted_rows[new_region]], first[1:]),
                      np.split(stats, first[1:], axis=1))
        maps[k] = {
            subset: FingerprintMap(subset, grid, sigs, n.astype(np.int64), x, y, acc, rad, part.cell_labels, lut)
            for subset, lut, sigs, (n, x, y, acc, rad) in per_map
        }
    return maps


def build_stores(
    deployment: ApDeployment, k_values: Iterable[int], cell_size: float = DEFAULT_CELL_SIZE
) -> dict[int, MapStore]:
    """One map store per k, all from one shared build of every k's subsets.

    The grid covers the deployment's area at `cell_size`, and each store's
    build_ms is the wall time of that one shared build.
    """
    grid = GridSpec.for_deployment(deployment, cell_size)
    subsets = {k: enumerate_ap_subsets(deployment.ap_ids, k) for k in sorted(set(k_values))}
    t0 = time.perf_counter()
    maps = _build_maps(deployment, subsets, grid)
    build_ms = (time.perf_counter() - t0) * 1000.0
    return {k: MapStore(deployment, k, grid, maps[k], build_ms) for k in subsets}


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
# Maps are written in subset order and regions in signature order.  Cell
# memberships are not stored.  At the first map line the loader knows k and
# rebuilds the store once from the deployment and cell size (build_map_store).
# A map block, in any subset order, loads as its rebuilt map when its region
# lines equal that map's own text; otherwise the loader names the first line
# that differs.  After the last block it checks that the file declared exactly
# the C(n, k) k-subset maps.  All reals carry exactly six fractional digits,
# which together with construction-time quantization makes save -> load
# field-exact and re-saves byte-identical.

STORE_HEADER = "APSEQMAP v1"


def save_map_store(store: MapStore, path) -> None:
    with open(path, "w") as fh:
        fh.write(map_store_to_text(store))


def map_store_to_text(store: MapStore) -> str:
    out = [STORE_HEADER]
    out.append(deployment_to_text(store.deployment).rstrip("\n"))
    out.append(f"grid {store.grid.cell_size:.6f}")
    for subset in sorted(store.maps):
        out.append("map " + " ".join(str(i) for i in subset))
        out.extend(_region_lines(store.maps[subset]))
    return "\n".join(out) + "\n"


def _region_lines(fmap: FingerprintMap) -> list[str]:
    """A map's region lines, as the store file holds them."""
    return [
        f"region {signature_to_text(sig)} {x:.6f} {y:.6f} {acc:.6f} {rad:.6f} {n}"
        for sig, n, x, y, acc, rad in zip(*(column.tolist() for column in fmap.columns))
    ]


def load_map_store(path) -> MapStore:
    with open(path) as fh:
        return map_store_from_text(fh.read(), source=str(path))


def map_store_from_text(text: str, source: str = "<string>") -> MapStore:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != STORE_HEADER:
        raise ValueError(f"{source}: unsupported version (expected {STORE_HEADER!r})")
    # Deployment block: header line then area/ap lines until 'grid'.
    grid_at = next((n for n, ln in enumerate(lines) if ln.startswith("grid ")), len(lines))
    if grid_at == len(lines):
        raise ValueError(f"{source}: truncated store file")
    if lines[1] != DEPLOY_HEADER:
        raise ValueError(f"{source}: missing deployment block")
    deployment = deployment_from_text("\n".join(lines[1:grid_at]), source=source)
    grid_ln = lines[grid_at].split()
    try:
        if len(grid_ln) != 2:
            raise ValueError("expected one cell size")
        grid = GridSpec.for_deployment(deployment, float(grid_ln[1]))
    except ValueError as exc:
        raise ValueError(f"{source}: malformed grid line {lines[grid_at]!r} ({exc})") from None

    # Each map block runs from its map line to the next line that is not a
    # region line; the first line after the grid starts a block regardless.
    body = lines[grid_at + 1:]
    if not body:
        raise ValueError(f"{source}: store contains no maps")
    heads = [n for n, ln in enumerate(body) if n == 0 or not ln.startswith("region ")]
    rebuilt: MapStore | None = None
    maps: dict[SubsetKey, FingerprintMap] = {}
    for head, end in zip(heads, heads[1:] + [len(body)]):
        map_ln = body[head].split()
        if map_ln[0] != "map":
            raise ValueError(f"{source}: expected map line, got {body[head]!r}")
        try:
            subset = subset_key(int(i) for i in map_ln[1:])
        except ValueError as exc:
            raise ValueError(f"{source}: malformed map line {body[head]!r} ({exc})") from None
        if rebuilt is not None and len(subset) != rebuilt.k:
            raise ValueError(f"{source}: map subset {subset} is not size {rebuilt.k}")
        if subset in maps:
            raise ValueError(f"{source}: duplicate map block for subset {subset}")
        unknown = sorted(set(subset) - deployment.ap_id_set)
        if unknown:
            raise ValueError(f"{source}: map subset {subset} names AP ids {unknown} not in the deployment")
        if rebuilt is None:
            rebuilt = build_map_store(deployment, len(subset), grid.cell_size)
        got, want = body[head + 1:end], _region_lines(rebuilt.maps[subset])
        if got != want:  # name the first line that differs, or where one side ends
            at = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            got_ln, want_ln = (repr(side[at]) if at < len(side) else "end of map block" for side in (got, want))
            raw = text.splitlines()  # numbered as given: blank lines count, and one past the last
            line = ([n for n, ln in enumerate(raw, 1) if ln.strip()] + [len(raw) + 1])[grid_at + head + 2 + at]
            raise ValueError(f"{source}: line {line}: {got_ln}, rebuild gives {want_ln}")
        maps[subset] = rebuilt.maps[subset]
    expected = math.comb(deployment.n_aps, rebuilt.k)
    if len(maps) != expected:
        raise ValueError(
            f"{source}: {len(maps)} maps does not match C({deployment.n_aps},{rebuilt.k})={expected}"
        )
    return MapStore(deployment=deployment, k=rebuilt.k, grid=grid, maps=maps)
