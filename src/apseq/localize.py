"""Online position estimation from an observation window of RSS samples.

The pipeline is: aggregate the window into one RSS value per AP heard,
cluster those values, and try the candidate AP subsets in order until a
candidate's measured signature is present in the corresponding fingerprint
map.  The first hit wins and the estimate is that region's centroid; if
every candidate misses, the attempt is a missed detection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Union

import numpy as np

from .mapgen import MapSet
from .model import RssScan, Signature, SubsetKey
from .selection import _clustering, _lloyd, _rank, candidate_picks
from .selection import kmeans_1d  # noqa: F401 (perfbench traces kmeans_1d here)

# An AP must appear in at least this fraction of the window's sampling
# instants to count as detected after aggregation.
DETECTION_RATIO = 0.10
# Instants x APs of one window, simulated or loaded from a scan file; at the
# limit synth_window + aggregate_scan add 40 MB of peak.
MAX_WINDOW_SAMPLES = 1_000_000


def instant_count(duration_s: float, cadence_s: float) -> int:
    """Sampling instants of a window: floor(duration / cadence).

    This is the one rule for a sampling schedule; it raises ValueError
    unless 0 < cadence_s <= duration_s < inf and their ratio is finite.
    """
    if not (0 < cadence_s <= duration_s < math.inf and duration_s / cadence_s < math.inf):
        raise ValueError(
            f"need 0 < cadence_s <= duration_s < inf and a finite ratio "
            f"(duration_s={duration_s}, cadence_s={cadence_s})"
        )
    return int(duration_s / cadence_s + 1e-9)


@dataclass(frozen=True, eq=False)
class ScanWindow:
    """RSS samples of one observation window as one matrix.

    Row r holds the samples taken at times[r] (non-decreasing) and column j
    those of AP ap_ids[j]; rss[r, j] is in dBm, NaN where that AP went
    unheard at that instant.  The arrays are read-only copies.  duration_s
    and cadence_s describe the sampling schedule (see instant_count).
    """

    times: np.ndarray
    ap_ids: tuple[int, ...]
    rss: np.ndarray
    duration_s: float
    cadence_s: float

    def __post_init__(self):
        instant_count(self.duration_s, self.cadence_s)
        times = np.array(self.times, dtype=float)
        rss = np.array(self.rss, dtype=float)
        ap_ids = tuple(self.ap_ids)
        if times.ndim != 1 or rss.shape != (len(times), len(ap_ids)):
            raise ValueError(
                f"rss must be a (times, ap_ids) matrix of shape "
                f"{(len(times), len(ap_ids))}, got {rss.shape}"
            )
        if len(set(ap_ids)) != len(ap_ids):
            raise ValueError("duplicate ap_id in window")
        if not np.isfinite(times).all() or (times[1:] < times[:-1]).any():
            raise ValueError("timestamps must be finite and non-decreasing")
        times.flags.writeable = rss.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ap_ids", ap_ids)
        object.__setattr__(self, "rss", rss)

    @cached_property
    def aps(self) -> Mapping[int, tuple[tuple[float, float], ...]]:
        """Read-only ap_id -> ((timestamp_s, rss_dbm), ...) view of the heard samples."""
        times = self.times.tolist()
        out = {}
        for j, ap_id in enumerate(self.ap_ids):
            col = self.rss[:, j]
            rows = np.flatnonzero(~np.isnan(col)).tolist()
            out[ap_id] = tuple(zip([times[r] for r in rows], col[rows].tolist()))
        return MappingProxyType(out)


def aggregate_scan(window: ScanWindow, duration_s: float | None = None) -> RssScan:
    """Collapse a window into one RSS value per AP (arithmetic mean in dBm).

    With duration_s, only the first instant_count(duration_s, cadence_s)
    rows count: of a simulated window, the samples that a window simulated
    for duration_s would hold.  A duration_s beyond the window's own is a
    ValueError.  APs heard in fewer than 10% of the instants counted are left
    out; ValueError("no signal") when nothing survives.
    This is aggregate_heads(window)(duration_s).
    """
    return aggregate_heads(window)(duration_s)


def aggregate_heads(window: ScanWindow) -> Callable[[float | None], RssScan]:
    """head, with head(d) == aggregate_scan(window, d) bit for bit for every d.
    The running sums are accumulated once, row after row, so row
    instant_count(d) - 1 holds the totals of head d whatever rows follow."""
    rss, limit = window.rss, window.duration_s
    heard = rss == rss  # False exactly where NaN
    # Each total is the left-to-right sum of the AP's samples; + 0.0 below
    # turns an all -0.0 total into 0.0, as 0 + -0.0.
    sums = np.add.accumulate(np.where(heard, rss, 0.0), axis=0)

    def head(duration_s: float | None) -> RssScan:
        d = limit if duration_s is None else duration_s
        if d > limit:
            raise ValueError(f"{d} s exceeds the window's {limit} s")
        n = instant_count(d, window.cadence_s)
        r = len(rss) if duration_s is None else min(n, len(rss))
        floor = DETECTION_RATIO * n
        # Counted per head, not accumulated, so that aggregate_scan pays one reduce.
        counts = np.add.reduce(heard[:r], axis=0, dtype=float).tolist()
        if not counts or max(counts) < floor:
            raise ValueError("no signal")
        totals = zip(window.ap_ids, sums[r - 1].tolist(), counts)
        return RssScan({i: (s + 0.0) / c for i, s, c in totals if c >= floor})

    return head


@dataclass(frozen=True)
class Estimate:
    """Successful localization: the matched region's centroid plus match context."""

    position: tuple[float, float]
    matched_signature: Signature
    subset: SubsetKey
    region_accuracy: float
    region_radius: float
    candidates_tried: int


@dataclass(frozen=True)
class MissedDetection:
    """Every candidate signature was absent from its fingerprint map."""

    candidates_tried: int


LocalizationOutcome = Union[Estimate, MissedDetection]


def rank_scan(scan: RssScan, stores: MapSet) -> tuple:
    """Rank a scan once for every k: kmeans_1d's ranking (ids, values,
    distinct values, fault) of the scan's APs known to the set's deployment."""
    values, known = scan.values, stores.deployment.ap_id_set
    return _rank(values if values.keys() <= known else {i: v for i, v in values.items() if i in known})


def _seeded(ranked: tuple, stores: MapSet, k: int) -> tuple:
    """localize's (ids, xs, seeds, maps) at k from rank_scan's ranking, or its ValueError."""
    ids, xs, distinct, fault = ranked
    k_eff = min(k, len(distinct))
    if k < 2 or k_eff < 2:
        raise ValueError(f"k must be at least 2 (got {k})" if k < 2 else "insufficient APs")
    if fault:
        raise ValueError(fault)
    return ids, xs, distinct[:k_eff], stores[k_eff].maps


def _first_hit(walk, maps) -> LocalizationOutcome:
    """The first candidate of the walk whose signature is in its map."""
    for tried, picks in enumerate(walk, 1):
        region = maps[tuple(sorted(picks))].regions.get(picks)
        if region is not None:
            return Estimate(region.centroid, picks, tuple(sorted(picks)), region.accuracy, region.radius, tried)
    return MissedDetection(candidates_tried=tried)


def localize(scan: RssScan, stores: MapSet, k: int) -> LocalizationOutcome:
    """Estimate a position from an aggregated scan, with candidate fallback.

    `stores` is the map set of one deployment and grid; k >= 2.  When fewer
    than k distinct RSS values were detected, k degrades to that count, whose
    maps the set builds on first use.  Candidates are walked lazily in
    selection.candidate_picks order until a signature is present in its map.
    Scan APs foreign to the deployment are ignored.
    """
    ids, xs, seeds, maps = _seeded(rank_scan(scan, stores), stores, k)
    # Top-rank Lloyd seeding, not the exact default: localization outcomes
    # are pinned by per-k references, and switching is a change of its own.
    return _first_hit(candidate_picks(_clustering(ids, xs, _lloyd(xs, seeds))), maps)


def locate(ranked: tuple, stores: MapSet, k: int) -> LocalizationOutcome | None:
    """localize at k from rank_scan's ranking, None where localize raises
    ValueError; the walk reads the runs of _lloyd's last pass."""
    try:
        ids, xs, seeds, maps = _seeded(ranked, stores, k)
        bounds, _ = _lloyd(xs, seeds)[-1]
    except ValueError:
        return None
    return _first_hit(itertools.product(*[ids[a:b] for a, b in zip(bounds, bounds[1:])]), maps)


# ----------------------------------------------------------------------------
# Scan file format: header line, the sampling schedule, then one line per
# sample, in time order and by ap_id within one instant.
#
#   APSEQ-SCAN v2
#   window <duration_s> <cadence_s>
#   sample <t_seconds> <ap_id> <rss_dbm>
#
# The schedule is written exactly (shortest round-trip repr).

SCAN_HEADER = "APSEQ-SCAN v2"


def save_scan(window: ScanWindow, path) -> None:
    with open(path, "w") as fh:
        fh.write(scan_to_text(window))


def scan_to_text(window: ScanWindow) -> str:
    order = sorted(range(len(window.ap_ids)), key=window.ap_ids.__getitem__)
    ids = [window.ap_ids[j] for j in order]
    rss = window.rss[:, order]
    rows, cols = np.nonzero(~np.isnan(rss))
    times = window.times.tolist()
    out = [SCAN_HEADER, f"window {float(window.duration_s)!r} {float(window.cadence_s)!r}"]
    out.extend(
        f"sample {times[r]:.3f} {ids[c]} {v:.6f}"
        for r, c, v in zip(rows.tolist(), cols.tolist(), rss[rows, cols].tolist())
    )
    return "\n".join(out) + "\n"


def load_scan(path) -> ScanWindow:
    with open(path) as fh:
        return scan_from_text(fh.read(), source=str(path))


def scan_from_text(text: str, source: str = "<string>") -> ScanWindow:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SCAN_HEADER:
        raise ValueError(f"{source}: unsupported version (expected {SCAN_HEADER!r})")
    parts = lines[1].split() if len(lines) > 1 else []
    try:
        if len(parts) != 3 or parts[0] != "window":
            raise ValueError
        schedule = float(parts[1]), float(parts[2])
        instant_count(*schedule)
    except ValueError:
        raise ValueError(f"{source}: malformed window line {' '.join(parts)!r}") from None
    body = lines[2:]
    if len(body) > MAX_WINDOW_SAMPLES:
        raise ValueError(f"{source}: {len(body)} sample lines exceed the limit of {MAX_WINDOW_SAMPLES} samples")
    times, ids, values = [], [], []  # one list per column
    for ln in body:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "sample":
            raise ValueError(f"{source}: malformed sample line {ln!r}")
        try:
            t, ap_id, rss = float(parts[1]), int(parts[2]), float(parts[3])
            if not (math.isfinite(t) and math.isfinite(rss)):
                raise ValueError
        except ValueError:
            raise ValueError(f"{source}: malformed sample line {ln!r}") from None
        times.append(t)
        ids.append(ap_id)
        values.append(rss)
    del lines, body  # the line texts go: the columns hold every sample now
    if not times:
        raise ValueError(f"{source}: scan file contains no samples")
    # An AP's m-th sample at time t goes to the m-th row of t, and t gets as
    # many rows as its most-sampled AP needs.  `last` keeps each AP's latest
    # (t, m), its keys in the order the APs first appear.
    last: dict[int, tuple[float, int]] = {}
    rows: dict[float, int] = {}
    ms = []
    for t, ap_id in zip(times, ids):
        prev, m = last.get(ap_id, (t, -1))
        if t < prev:
            raise ValueError(f"{source}: timestamps for AP {ap_id} are not non-decreasing")
        m = m + 1 if t == prev else 0
        last[ap_id] = t, m
        rows[t] = max(rows.get(t, 0), m + 1)
        ms.append(m)
    ts = sorted(rows)
    counts = [rows[t] for t in ts]
    first_row = dict(zip(ts, np.cumsum(counts) - counts))
    col = {ap_id: j for j, ap_id in enumerate(last)}
    shape = (sum(counts), len(col))
    if shape[0] * shape[1] > MAX_WINDOW_SAMPLES:
        raise ValueError(f"{source}: window of {shape[0]} rows x {shape[1]} APs exceeds the limit of "
                         f"{MAX_WINDOW_SAMPLES} samples")
    rss = np.full(shape, np.nan)
    rss[np.fromiter(map(first_row.__getitem__, times), np.intp, len(times)) + ms,
        np.fromiter(map(col.__getitem__, ids), np.intp, len(ids))] = values
    return ScanWindow(np.repeat(ts, counts), tuple(col), rss, *schedule)
