"""Experiment harness: simulated localization runs and their metrics.

A plain-text config describes one scenario (deployment file, grid, the k
values to evaluate, propagation and window parameters, test points, seed).
The harness builds one map store per k (all from one shared build),
simulates an observation window at every test point, localizes it at every
k, and reports per-k error lists, missed-detection rates and empirical CDFs.

`simulate` is the one source of the experiment's test points and windows;
the experiment loop and `apseq simulate` both draw from it.  All randomness
flows from the single config seed through named substreams: test-point
coordinates use substream (seed, 0) and the window of test point i uses
substream (seed, i+1), so adding test points never perturbs earlier ones
and windows of different durations share their leading samples.  A
window-duration sweep therefore simulates each point once, at the longest
duration, and aggregates that window's first d seconds for each duration d.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .localize import Estimate, ScanWindow, aggregate_heads, instant_count, locate, rank_scan
from .mapgen import DEFAULT_CELL_SIZE, GridSpec, MapStore, build_stores
from .model import ApDeployment, load_deployment
from .propagation import (
    DEFAULT_CADENCE_S,
    DEFAULT_DURATION_S,
    PropagationParams,
    gen_test_points,
    synth_window,
)

# Test points of one run; at the limit `apseq evaluate` on dover (k = 3..7) peaked at 80 MB.
MAX_TEST_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario: where the APs are, what to simulate, what to evaluate.

    Every field is a config key (see parse_config).  Key, default, meaning:

    deployment        (required)  deployment file, relative to the config file
    k_values          (required)  subset sizes to evaluate, e.g. ``3, 4, 5``
    cell_size         0.2         grid cell edge of the maps, m
    p0_dbm            -30.0       RSS at the reference distance, dBm
    gamma             2.5         path-loss exponent
    d0_m              1.0         reference distance, m
    sigma_db          0.0         shadowing standard deviation, dB
    detect_floor_dbm  -95.0       samples below it go unheard, dBm
    round_to_int      false       report whole dBm (true/yes/1 or false/no/0)
    test_point_mode   random      ``random``, or ``grid`` with test_points per side
    test_points       27          number of test points
    duration_s        60.0        observation window per test point, s
    cadence_s         0.3         sampling interval within a window, s
    seed              0           root of every random substream
    out_dir           out         where ``apseq evaluate`` writes without --out
    """

    deployment: str
    k_values: tuple[int, ...]
    cell_size: float = DEFAULT_CELL_SIZE
    p0_dbm: float = PropagationParams.p0_dbm
    gamma: float = PropagationParams.gamma
    d0_m: float = PropagationParams.d0_m
    sigma_db: float = PropagationParams.sigma_db
    detect_floor_dbm: float = PropagationParams.detect_floor_dbm
    round_to_int: bool = PropagationParams.round_to_int
    test_point_mode: str = "random"
    test_points: int = 27
    duration_s: float = DEFAULT_DURATION_S
    cadence_s: float = DEFAULT_CADENCE_S
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("k_values must not be empty")
        if any(k < 2 for k in self.k_values):
            raise ValueError("every k must be at least 2")
        if self.test_points < 1:
            raise ValueError("test_points must be at least 1")
        if self.test_point_mode not in ("grid", "random"):
            raise ValueError(f"unknown test-point mode {self.test_point_mode!r}")
        if self.n_points > MAX_TEST_POINTS:
            raise ValueError(f"{self.n_points} test points ({self.test_point_mode} mode, test_points = "
                             f"{self.test_points}) exceed the limit of {MAX_TEST_POINTS}")
        for name in ("duration_s", "cadence_s", "cell_size"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        instant_count(self.duration_s, self.cadence_s)
        self.params()  # validates the propagation fields
        self.root_seed()

    @property
    def n_points(self) -> int:
        """Test points of one run: test_points, squared in grid mode."""
        return self.test_points ** (2 if self.test_point_mode == "grid" else 1)

    def root_seed(self, seed: int | None = None) -> int:
        """The seed of a run: `seed` when given, else the config's."""
        seed = self.seed if seed is None else seed
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return seed

    def params(self) -> PropagationParams:
        return PropagationParams(**{f.name: getattr(self, f.name) for f in fields(PropagationParams)})


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_config(text: str, base_dir: str = ".", source: str = "<string>") -> ExperimentConfig:
    """Parse `key = value` lines; every ExperimentConfig field is a key.

    Blank lines and lines starting with '#' are ignored.  The deployment
    path is resolved relative to base_dir (normally the config file's
    directory), k_values takes integers separated by commas or spaces, and
    every other value is read as the type of its field's default.
    """
    known = {f.name: f for f in fields(ExperimentConfig)}
    values: dict = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{source}: malformed config line {ln!r}")
        key, _, raw = ln.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            raise ValueError(f"{source}: duplicate key {key!r}")
        if key not in known:
            raise ValueError(f"{source}: unknown config key {key!r}")
        try:
            if key == "deployment":
                values[key] = os.path.join(base_dir, raw)
            elif key == "k_values":
                values[key] = tuple(int(v) for v in raw.replace(",", " ").split())
            else:
                kind = type(known[key].default)
                values[key] = _parse_bool(raw) if kind is bool else kind(raw)
        except ValueError as exc:
            raise ValueError(f"{source}: bad value for {key!r}: {exc}") from None
    for req in ("deployment", "k_values"):
        if req not in values:
            raise ValueError(f"{source}: missing required key {req!r}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)), source=str(path))


def error_cdf(errors: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Empirical CDF evaluated at each distinct error value (right-continuous)."""
    if len(errors) == 0:
        raise ValueError("empty error list")
    arr = np.sort(np.asarray(errors, dtype=float))
    n = len(arr)
    out = []
    for v in np.unique(arr):
        out.append((float(v), float(np.searchsorted(arr, v, side="right") / n)))
    return tuple(out)


@dataclass(frozen=True)
class KReport:
    """Results of one k over all test points (errors cover matched points only)."""

    k: int
    n_points: int
    errors: tuple[float, ...]
    missed: int
    build_ms: float
    n_maps: int

    @property
    def missed_rate(self) -> float:
        return self.missed / self.n_points

    @property
    def median_error(self) -> float:
        return statistics.median(self.errors) if self.errors else float("nan")

    @property
    def mean_error(self) -> float:
        return statistics.fmean(self.errors) if self.errors else float("nan")

    @property
    def cdf(self) -> tuple[tuple[float, float], ...]:
        return error_cdf(self.errors)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one run produced, keyed by k; deterministic under the seed."""

    config: ExperimentConfig
    points: tuple[tuple[float, float], ...]
    per_k: Mapping[int, KReport] = field(default_factory=dict)


def simulate(
    config: ExperimentConfig, deployment: ApDeployment, seed: int | None = None
) -> Iterator[tuple[tuple[float, float], ScanWindow]]:
    """Yield the experiment's (test point, simulated window) pairs in order.

    Windows are made one at a time, so a caller that consumes each before
    the next holds only one.  `seed` overrides the config seed.  A window's
    noise comes from its point's own substream, so the window of a shorter
    duration holds the leading rows of a longer one.
    """
    seed = config.root_seed(seed)
    params = config.params()
    points = gen_test_points(
        deployment.width,
        deployment.height,
        config.test_points,
        mode=config.test_point_mode,
        rng=np.random.default_rng(np.random.SeedSequence((seed, 0))),
    )
    for idx, point in enumerate(points):
        yield point, synth_window(
            point,
            deployment,
            params,
            duration_s=config.duration_s,
            cadence_s=config.cadence_s,
            rng=np.random.default_rng(np.random.SeedSequence((seed, idx + 1))),
        )


def _checked_stores(
    config: ExperimentConfig,
    deployment: ApDeployment,
    stores: Mapping[int, MapStore] | None,
) -> Mapping[int, MapStore]:
    """The passed stores once they fit the config, else one fresh build."""
    if stores is None:
        return build_stores(deployment, config.k_values, config.cell_size)
    grid = GridSpec.for_deployment(deployment, config.cell_size)
    for k, store in stores.items():
        if store.deployment != deployment:
            raise ValueError(
                f"store for k={k} was built for another deployment than {config.deployment}"
            )
        if store.grid != grid:
            raise ValueError(f"store for k={k} has grid {store.grid}, the config needs {grid}")
    for k in config.k_values:
        if k not in stores:
            raise ValueError(f"store/k mismatch (no store for k={k})")
    return stores


def run_experiment(
    config: ExperimentConfig,
    seed: int | None = None,
    stores: Mapping[int, MapStore] | None = None,
) -> ExperimentReport:
    """Simulate and localize every test point at every configured k.

    The same simulated window is localized at each k, mirroring one walk
    evaluated under different subset sizes.  Pass `stores` to reuse maps
    across repeated runs (they depend only on deployment and grid); they
    must be built for the config's deployment and cell size and hold every
    configured k, or ValueError is raised before any window is drawn.
    This is window_sweep at the config's one duration.
    """
    return window_sweep(config, (config.duration_s,), seed, stores)[float(config.duration_s)]


def window_sweep(
    config: ExperimentConfig,
    durations: Sequence[float],
    seed: int | None = None,
    stores: Mapping[int, MapStore] | None = None,
) -> dict[float, ExperimentReport]:
    """Re-run the experiment at several window durations, keyed by duration.

    Each test point's window is simulated once, at the longest duration.
    One aggregate_heads pass gives every duration d aggregate_scan(window, d):
    the samples a window simulated for d would hold, since every duration
    replays the point's noise stream.  Each such scan is ranked once and
    located at every k, which is localize at that k.  The comparison thus
    isolates the effect of observation time.  `stores` is checked as in
    run_experiment.
    """
    # Check the seed and every duration before any store is built.
    config.root_seed(seed)
    configs = {float(d): replace(config, duration_s=float(d)) for d in durations}
    deployment = load_deployment(config.deployment)
    stores = _checked_stores(config, deployment, stores)
    if not configs:
        return {}
    ks = config.k_values
    # Filled by index, not appended: small allocations made while windows
    # come and go pin allocator arenas and raise the process's peak RSS.
    points: list[tuple[float, float]] = [(math.nan, math.nan)] * config.n_points
    # Per duration and k, each point's error; None where it was missed.
    errors = {d: {k: [None] * config.n_points for k in ks} for d in configs}
    # The stores fit the config, so a ValueError here comes from the scan
    # (no signal, too few APs, a degraded k without a store): a miss.
    longest = max(configs)
    for idx, (point, window) in enumerate(simulate(configs[longest], deployment, seed)):
        points[idx] = point
        head = aggregate_heads(window, longest)
        for d in configs:
            try:
                ranked = rank_scan(head(d), stores)
            except ValueError:
                continue
            for k in ks:
                try:
                    outcome = locate(ranked, stores, k)
                except ValueError:
                    continue
                if isinstance(outcome, Estimate):
                    ex, ey = outcome.position
                    errors[d][k][idx] = float(np.hypot(ex - point[0], ey - point[1]))

    def k_report(d: float, k: int) -> KReport:
        hits = tuple(e for e in errors[d][k] if e is not None)
        return KReport(k=k, n_points=len(points), errors=hits, missed=len(points) - len(hits),
                       build_ms=stores[k].build_ms, n_maps=stores[k].n_maps)

    return {
        d: ExperimentReport(config=cfg, points=tuple(points), per_k={k: k_report(d, k) for k in ks})
        for d, cfg in configs.items()
    }


def write_report_csvs(report: ExperimentReport, out_dir) -> list[str]:
    """Write cdf_k<K>.csv per k plus summary.csv; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for k in sorted(report.per_k):
        rep = report.per_k[k]
        path = os.path.join(out_dir, f"cdf_k{k}.csv")
        with open(path, "w") as fh:
            fh.write("error_m,cdf\n")
            if rep.errors:
                for err, c in rep.cdf:
                    fh.write(f"{err:.6f},{c:.6f}\n")
        written.append(path)
    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w") as fh:
        fh.write("k,points,missed_rate,median_error_m,mean_error_m,build_ms,maps\n")
        for k in sorted(report.per_k):
            rep = report.per_k[k]
            fh.write(
                f"{k},{rep.n_points},{rep.missed_rate:.6f},"
                f"{rep.median_error:.6f},{rep.mean_error:.6f},"
                f"{rep.build_ms:.3f},{rep.n_maps}\n"
            )
    written.append(path)
    return written
