"""Online position estimation from an observation window of RSS samples.

The pipeline is: aggregate the window into one RSS value per detected AP,
cluster those values, and try the candidate AP subsets in order until a
candidate's measured signature is present in the corresponding fingerprint
map.  The first hit wins and the estimate is that region's centroid; if
every candidate misses, the attempt is a missed detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .mapgen import FingerprintMap, MapStore, Region
from .model import (
    UNDETECTED_DBM,
    RssScan,
    Signature,
    SubsetKey,
    make_signature,
    signature_to_text,
    subset_key,
)
from .selection import generate_candidate_sets, kmeans_1d

# An AP must appear in at least this fraction of the window's sampling
# instants to count as detected after aggregation.
DETECTION_RATIO = 0.10


def instant_count(duration_s: float, cadence_s: float) -> int:
    """Sampling instants of a window: floor(duration / cadence).

    This is the one rule for a sampling schedule; it raises ValueError
    unless 0 < cadence_s <= duration_s < inf.
    """
    if not 0 < cadence_s <= duration_s < math.inf:
        raise ValueError(
            f"need 0 < cadence_s <= duration_s < inf "
            f"(duration_s={duration_s}, cadence_s={cadence_s})"
        )
    return int(duration_s / cadence_s + 1e-9)


@dataclass(frozen=True)
class ScanWindow:
    """Per-AP RSS time series over one observation window.

    aps maps ap_id -> tuple of (timestamp_s, rss_dbm) samples; instants
    where an AP was not heard simply have no sample for it.  duration_s and
    cadence_s describe the sampling schedule (see instant_count).
    """

    aps: Mapping[int, tuple[tuple[float, float], ...]]
    duration_s: float
    cadence_s: float

    def __post_init__(self):
        instant_count(self.duration_s, self.cadence_s)
        object.__setattr__(self, "aps", dict(self.aps))
        for ap_id, series in self.aps.items():
            ts = [t for t, _ in series]
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise ValueError(f"timestamps for AP {ap_id} are not non-decreasing")

    @property
    def n_instants(self) -> int:
        return instant_count(self.duration_s, self.cadence_s)


def aggregate_scan(window: ScanWindow) -> RssScan:
    """Collapse a window into one RSS value per AP (arithmetic mean in dBm).

    APs heard in fewer than 10% of the sampling instants get the undetected
    sentinel.  Raises ValueError("no signal") when nothing at all survives.
    """
    n = window.n_instants
    values: dict[int, float] = {}
    any_detected = False
    for ap_id, series in window.aps.items():
        if len(series) < DETECTION_RATIO * n:
            values[ap_id] = UNDETECTED_DBM
            continue
        values[ap_id] = sum(r for _, r in series) / len(series)
        any_detected = True
    if not any_detected:
        raise ValueError("no signal")
    return RssScan(values=values)


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


def match_signature(sig: Signature, fmap: FingerprintMap) -> Region | None:
    """Exact-equality lookup of a measured signature in one fingerprint map."""
    if subset_key(sig) != fmap.subset:
        raise ValueError(
            f"signature {signature_to_text(sig)} is not over map subset {fmap.subset}"
        )
    return fmap.regions.get(sig)


def _store_for(
    store: Union[MapStore, Mapping[int, MapStore]], k: int
) -> MapStore:
    if isinstance(store, MapStore):
        if store.k != k:
            raise ValueError(f"store/k mismatch (store holds k={store.k}, need k={k})")
        return store
    try:
        return store[k]
    except KeyError:
        raise ValueError(f"store/k mismatch (no store for k={k})") from None


def localize(
    scan: RssScan,
    store: Union[MapStore, Mapping[int, MapStore]],
    k: int,
) -> LocalizationOutcome:
    """Estimate a position from an aggregated scan, with candidate fallback.

    When fewer than k distinct RSS values were detected, k degrades to
    that count (stores for the smaller k must be available, e.g. by passing
    a dict of stores keyed by k).  Candidates are tried in the deterministic
    strongest-first order; the first signature present in its map wins.
    Detected APs missing from the store's deployment (real scanners hear
    foreign APs) are ignored; the stores of a mapping share one deployment.
    """
    detected = scan.detected()
    any_store = store if isinstance(store, MapStore) else next(iter(store.values()), None)
    if any_store is not None and not detected.keys() <= any_store.deployment.ap_id_set:
        known = any_store.deployment.ap_id_set
        detected = {i: v for i, v in detected.items() if i in known}
    k_eff = min(k, len(set(detected.values())))
    if k_eff < 2:
        raise ValueError("insufficient APs")
    the_store = _store_for(store, k_eff)
    # Top-rank Lloyd seeding, not the exact default: localization outcomes
    # are pinned by per-k references, and switching is a change of its own.
    clustering = kmeans_1d(detected, k_eff, seed_ranks=range(1, k_eff + 1))
    tried = 0
    for cand in generate_candidate_sets(clustering):
        tried += 1
        sig = make_signature(scan, cand.subset)
        region = match_signature(sig, the_store.maps[cand.subset])
        if region is not None:
            return Estimate(
                position=region.centroid,
                matched_signature=sig,
                subset=cand.subset,
                region_accuracy=region.accuracy,
                region_radius=region.radius,
                candidates_tried=tried,
            )
    return MissedDetection(candidates_tried=tried)


# ----------------------------------------------------------------------------
# Scan file format: header line, then one line per sample.
#
#   APSEQ-SCAN v1
#   sample <t_seconds> <ap_id> <rss_dbm>
#
# Samples are written in time order.  The loader reconstructs the sampling
# schedule from the distinct timestamps present in the file.

SCAN_HEADER = "APSEQ-SCAN v1"


def save_scan(window: ScanWindow, path) -> None:
    with open(path, "w") as fh:
        fh.write(scan_to_text(window))


def scan_to_text(window: ScanWindow) -> str:
    rows = []
    for ap_id in sorted(window.aps):
        for t, rss in window.aps[ap_id]:
            rows.append((t, ap_id, rss))
    rows.sort(key=lambda r: (r[0], r[1]))
    out = [SCAN_HEADER]
    out.extend(f"sample {t:.3f} {ap_id} {rss:.6f}" for t, ap_id, rss in rows)
    return "\n".join(out) + "\n"


def load_scan(path) -> ScanWindow:
    with open(path) as fh:
        return scan_from_text(fh.read(), source=str(path))


def scan_from_text(text: str, source: str = "<string>") -> ScanWindow:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SCAN_HEADER:
        raise ValueError(f"{source}: unsupported version (expected {SCAN_HEADER!r})")
    series: dict[int, list[tuple[float, float]]] = {}
    instants: set[float] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "sample":
            raise ValueError(f"{source}: malformed sample line {ln!r}")
        try:
            t, ap_id, rss = float(parts[1]), int(parts[2]), float(parts[3])
            if not (math.isfinite(t) and math.isfinite(rss)):
                raise ValueError
        except ValueError:
            raise ValueError(f"{source}: malformed sample line {ln!r}") from None
        series.setdefault(ap_id, []).append((t, rss))
        instants.add(t)
    if not series:
        raise ValueError(f"{source}: scan file contains no samples")
    ts = sorted(instants)
    # Infer the schedule: cadence from the smallest gap between distinct
    # instants, duration covering all of them.
    cadence = min((b - a for a, b in zip(ts, ts[1:])), default=1.0)
    duration = cadence * len(ts)
    return ScanWindow(
        aps={i: tuple(s) for i, s in series.items()},
        duration_s=duration,
        cadence_s=cadence,
    )
