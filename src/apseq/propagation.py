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

from .localize import ScanWindow
from .model import ApDeployment

DEFAULT_DURATION_S = 60.0
DEFAULT_CADENCE_S = 0.3


@dataclass(frozen=True)
class PropagationParams:
    """Log-distance model: rss = p0 - 10*gamma*log10(max(d, d0)/d0) + noise.

    sigma_db is the shadowing standard deviation; samples below
    detect_floor_dbm are dropped as undetected.  round_to_int emulates
    hardware that reports whole dBm.  seed drives the default noise stream.
    """

    p0_dbm: float = -30.0
    gamma: float = 2.5
    d0_m: float = 1.0
    sigma_db: float = 0.0
    detect_floor_dbm: float = -95.0
    seed: int = 0
    round_to_int: bool = False

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.d0_m > 0:
            raise ValueError("reference distance d0_m must be positive")
        if not self.sigma_db >= 0:
            raise ValueError("sigma_db must be a non-negative number")
        if not self.detect_floor_dbm > -100.0:
            raise ValueError("detect_floor_dbm must exceed the -100 sentinel")


def mean_rss(distance_m: float, params: PropagationParams) -> float:
    """Noise-free RSS at a given distance (the model's deterministic part)."""
    d = max(distance_m, params.d0_m)
    return params.p0_dbm - 10.0 * params.gamma * math.log10(d / params.d0_m)


def rss_at(
    point: tuple[float, float],
    ap_position: tuple[float, float],
    params: PropagationParams,
    noise_draw: float = 0.0,
) -> float | None:
    """One RSS sample at `point` from an AP, or None when below the floor."""
    d = math.hypot(point[0] - ap_position[0], point[1] - ap_position[1])
    rss = min(mean_rss(d, params) + noise_draw, params.p0_dbm)
    if params.round_to_int:
        rss = float(round(rss))
    if rss < params.detect_floor_dbm:
        return None
    return rss


def synth_window(
    point: tuple[float, float],
    deployment: ApDeployment,
    params: PropagationParams,
    duration_s: float = DEFAULT_DURATION_S,
    cadence_s: float = DEFAULT_CADENCE_S,
    rng: np.random.Generator | None = None,
) -> ScanWindow:
    """Simulate one observation window at a point.

    Shadowing draws are i.i.d. per (instant, AP) and come from `rng` (or a
    fresh generator seeded by params.seed).  The noise matrix is drawn
    row-by-row in instant order, so with the same generator state a shorter
    window is a sample-for-sample prefix of a longer one.
    """
    if not 0 < cadence_s <= duration_s:
        raise ValueError("need duration_s >= cadence_s > 0")
    n_instants = int(duration_s / cadence_s + 1e-9)
    ap_ids = deployment.ap_ids
    if params.sigma_db > 0:
        if rng is None:
            rng = np.random.default_rng(params.seed)
        noise = rng.normal(0.0, params.sigma_db, size=(n_instants, len(ap_ids)))
    else:
        noise = np.zeros((n_instants, len(ap_ids)))
    series: dict[int, list[tuple[float, float]]] = {i: [] for i in ap_ids}
    for i in range(n_instants):
        t = i * cadence_s
        for j, ap_id in enumerate(ap_ids):
            rss = rss_at(point, deployment.position(ap_id), params, noise[i, j])
            if rss is not None:
                series[ap_id].append((t, rss))
    return ScanWindow(
        aps={i: tuple(s) for i, s in series.items() if s},
        duration_s=duration_s,
        cadence_s=cadence_s,
    )


def gen_test_points(
    width: float,
    height: float,
    count: int,
    mode: str = "random",
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Deterministic test-point layouts strictly inside a rectangle.

    mode "grid": count points per side, placed at the centers of a
    count x count tiling.  mode "random": uniform draws, one point at a
    time, so a longer list extends a shorter one for the same stream.
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
    if rng is None:
        rng = np.random.default_rng(seed)
    points: list[tuple[float, float]] = []
    while len(points) < count:
        x = float(rng.uniform(0.0, width))
        y = float(rng.uniform(0.0, height))
        if 0.0 < x < width and 0.0 < y < height:
            points.append((x, y))
    return points
