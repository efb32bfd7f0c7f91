"""Synthetic RSS generation with a log-distance path-loss model.

RSS falls strictly with distance, so at zero noise the RSS ordering of APs
equals their distance ordering — exactly the assumption under which the
fingerprint maps are built.  Gaussian shadowing (in dB) perturbs individual
samples and is what makes measured AP sequences occasionally wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localize import MAX_WINDOW_SAMPLES, ScanWindow, instant_count
from .model import ApDeployment

DEFAULT_DURATION_S = 60.0
DEFAULT_CADENCE_S = 0.3


@dataclass(frozen=True)
class PropagationParams:
    """Log-distance model: rss = p0 - 10*gamma*log10(max(d, d0)/d0) + noise.

    sigma_db is the shadowing standard deviation; samples below detect_floor_dbm
    go unheard, and a floor above every sample's cap, p0_dbm (rounded under
    round_to_int), is refused.  round_to_int emulates hardware reporting whole dBm.
    """

    p0_dbm: float = -30.0
    gamma: float = 2.5
    d0_m: float = 1.0
    sigma_db: float = 0.0
    detect_floor_dbm: float = -95.0
    round_to_int: bool = False

    def __post_init__(self):
        if not math.isfinite(self.p0_dbm):
            raise ValueError("p0_dbm must be finite")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if not 0 < self.d0_m < math.inf:
            raise ValueError("reference distance d0_m must be finite and positive")
        if not 0 <= self.sigma_db < math.inf:
            raise ValueError("sigma_db must be a finite non-negative number")
        if not math.isfinite(self.detect_floor_dbm):
            raise ValueError("detect_floor_dbm must be finite")
        loudest = float(np.rint(self.p0_dbm)) if self.round_to_int else self.p0_dbm  # every sample's cap
        if self.detect_floor_dbm > loudest:
            raise ValueError(f"detect_floor_dbm {self.detect_floor_dbm} is above the loudest sample, {loudest} "
                             f"(p0_dbm {self.p0_dbm}): no AP would ever be heard")


def mean_rss(distance_m: float, params: PropagationParams) -> float:
    """Noise-free RSS at a given distance (the model's deterministic part)."""
    d = max(distance_m, params.d0_m)
    return params.p0_dbm - 10.0 * params.gamma * math.log10(d / params.d0_m)


def window_instants(deployment: ApDeployment, duration_s: float, cadence_s: float) -> int:
    """instant_count of a window over every AP; ValueError past MAX_WINDOW_SAMPLES samples."""
    n_instants = instant_count(duration_s, cadence_s)
    if n_instants * len(deployment.aps) > MAX_WINDOW_SAMPLES:
        raise ValueError(f"window of {n_instants} instants x {len(deployment.aps)} APs exceeds the limit of "
                         f"{MAX_WINDOW_SAMPLES} samples")
    return n_instants


def synth_window(
    point: tuple[float, float],
    deployment: ApDeployment,
    params: PropagationParams,
    duration_s: float = DEFAULT_DURATION_S,
    cadence_s: float = DEFAULT_CADENCE_S,
    *,
    rng: np.random.Generator,
) -> ScanWindow:
    """Simulate one observation window at a point.

    Shadowing draws are i.i.d. per (instant, AP) and come from `rng` (none
    at sigma_db 0).  The noise matrix is drawn row-by-row in instant order,
    so with the same generator state a shorter window is a sample-for-sample
    prefix of a longer one.  Each sample is min(mean_rss + noise, p0_dbm),
    rounded when round_to_int is set; samples below detect_floor_dbm go
    unheard (NaN), and APs never heard get no column.
    """
    n_instants = window_instants(deployment, duration_s, cadence_s)
    aps = deployment.aps
    shape = (n_instants, len(aps))
    noise = rng.normal(0.0, params.sigma_db, size=shape) if params.sigma_db > 0 else np.zeros(shape)
    mean = [mean_rss(math.hypot(point[0] - x, point[1] - y), params) for _, x, y in aps]
    rss = np.minimum(noise + mean, params.p0_dbm)
    if params.round_to_int:
        rss = np.rint(rss) + 0.0  # + 0.0 turns -0.0 into 0.0, as float(round(x)) does
    heard = rss >= params.detect_floor_dbm
    rss[~heard] = np.nan
    keep = heard.any(axis=0)
    return ScanWindow(
        times=np.arange(n_instants) * cadence_s,
        ap_ids=tuple(ap_id for (ap_id, _, _), k in zip(aps, keep.tolist()) if k),
        rss=rss[:, keep],
        duration_s=duration_s,
        cadence_s=cadence_s,
    )


def gen_test_points(
    width: float,
    height: float,
    count: int,
    mode: str = "random",
    *,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Deterministic test-point layouts strictly inside a rectangle.

    mode "grid": count points per side, placed at the centers of a
    count x count tiling.  mode "random": uniform draws from `rng`, one
    point at a time, so a longer list extends a shorter one from equal rngs.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if mode == "grid":
        return [
            ((i + 0.5) * width / count, (j + 0.5) * height / count)
            for j in range(count)
            for i in range(count)
        ]
    if mode != "random":
        raise ValueError(f"unknown test-point mode {mode!r}")
    points: list[tuple[float, float]] = []
    while len(points) < count:
        x = float(rng.uniform(0.0, width))
        y = float(rng.uniform(0.0, height))
        if 0.0 < x < width and 0.0 < y < height:
            points.append((x, y))
    return points
