"""The three benchmark workloads and the checks on their outputs.

Each workload has ``setup`` (timed, repeated), ``prepare`` (untimed: the
reference checks and the expected outputs the timed loop is compared
against) and ``block``, one unit of the closed timed loop.  Every block runs
the same ops on the same inputs, so each op has one time per block.  Inputs
are made from the workload seed; the program only ever sees those inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import statistics
import time
import traceback

import numpy as np

# Submodules by import_module: the package re-exports the function
# ``localize`` under the name of its submodule.
cli = importlib.import_module("apseq.cli")
evaluate = importlib.import_module("apseq.evaluate")
localize = importlib.import_module("apseq.localize")
mapgen = importlib.import_module("apseq.mapgen")
model = importlib.import_module("apseq.model")
propagation = importlib.import_module("apseq.propagation")

DATA = os.path.join(os.path.dirname(mapgen.__file__), "data")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
DEFAULT_SEED = 1
DOVER_K = (3, 4, 5, 6, 7)
GRID_M = 0.2  # the scan stream's stores, as in the paper
# The CLI path's grid.  At 0.2 m a round of ten commands took 3.4 s, so a
# 30 s run timed each command 8 times and its best time spread 0.08-0.25
# between runs; at 0.4 m (a quarter of the cells) it is timed ≈ 28 times.
MAPGEN_GRID_M = 0.4
MAPGEN_STORES = f"dover-{MAPGEN_GRID_M:g}"  # their key in references.json
POOL_WINDOWS = 200  # scan-stream pool: 200 windows x 5 k = 1000 requests per pass
SWEEP_DURATIONS = (3.0, 6.0, 12.0, 24.0, 36.0, 60.0)
# Config seeds derived from the workload seed, cycled.  Their sweeps' best
# times lie within ±5 % of each other, so a few seeds give the median; with
# 32 each sweep was timed ≈ 50 times in a run, and in runs where the host
# was mostly slow many never met a quiet moment.
SWEEP_SEEDS = 8
# Test points per timed sweep.  Short sweeps repeat often enough in a run
# for each one's best time to escape bursts of load from other tenants.
SWEEP_POINTS = 2


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


class Outcomes:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def guard(self, fn, *args):
        """Run one op; an exception counts as a failure and returns None."""
        try:
            return fn(*args)
        except Exception:  # the loop must go on and report the failure
            self.record(False, traceback.format_exc(limit=3))
            return None


def store_digests(stores, deployment_name: str, refs: dict, outcomes: Outcomes) -> list[str]:
    """Compare the text of each store with the reference sha256."""
    digests = []
    for k, store in sorted(stores.items()):
        digest = sha256_text(mapgen.map_store_to_text(store))
        outcomes.record(
            digest == refs["store_sha256"][deployment_name][str(k)],
            f"{deployment_name} k={k} store text sha256 {digest} differs from the reference",
        )
        digests.append(f"{deployment_name} k={k} {digest}")
    return digests


def outcome_text(outcome) -> str:
    if isinstance(outcome, localize.Estimate):
        x, y = outcome.position
        return (
            f"estimate {x:.6f} {y:.6f} {model.signature_to_text(outcome.matched_signature)} "
            f"{'-'.join(map(str, outcome.subset))} tried={outcome.candidates_tried}"
        )
    return f"missed tried={outcome.candidates_tried}"


def estimate_is_sound(scan, store, outcome) -> bool:
    """An estimate names a region of its map whose signature is the scan's RSS order."""
    values = scan.values
    order = tuple(sorted(outcome.subset, key=lambda i: (-values[i], i)))
    region = store.maps[outcome.subset].regions.get(outcome.matched_signature)
    return (
        order == outcome.matched_signature
        and region is not None
        and region.centroid == outcome.position
    )


def miss_summary(rows) -> dict:
    """Per-k missed count and median error from (k, outcome, point) rows."""
    missed: dict[int, int] = {}
    errors: dict[int, list[float]] = {}
    for k, outcome, (px, py) in rows:
        missed.setdefault(k, 0)
        errors.setdefault(k, [])
        if isinstance(outcome, localize.Estimate):
            ex, ey = outcome.position
            errors[k].append(math.hypot(ex - px, ey - py))
        else:
            missed[k] += 1
    return {
        "missed": {str(k): missed[k] for k in sorted(missed)},
        "median_error_m": {
            str(k): round(statistics.median(errors[k]), 6) if errors[k] else None
            for k in sorted(errors)
        },
    }


def summary_matches(got: dict, want: dict) -> bool:
    """Missed counts exactly; median errors to 3 decimals."""
    if got["missed"] != want["missed"]:
        return False
    for k, ref in want["median_error_m"].items():
        value = got["median_error_m"].get(k)
        if (ref is None) != (value is None) or (ref is not None and abs(value - ref) > 5e-4):
            return False
    return True


class Workload:
    name = ""
    setups = 5  # set-ups per run; setup_s is their median
    recorder = None  # the span recorder while a traced block runs
    reference_summary = None  # the default-seed outputs the gate compared
    latency = staticmethod(statistics.median)  # latency_ms from the per-op best times

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.refs = load_references()
        self.outcomes = Outcomes()
        self.op_times: list[float] = []  # per op of the timed loop, in order
        self.digest_lines: list[str] = []

    def digest(self) -> str:
        return sha256_text("\n".join(self.digest_lines))

    def check_stores(self) -> None:
        """Check the stores made in setup (traced with the last setup)."""

    def prepare(self) -> None:
        """Untimed work after set-up: reference checks and expected outputs."""

    def next_request(self) -> None:
        """Give the spans of the next op their own request id."""
        if self.recorder is not None:
            self.recorder.request = 0 if self.recorder.request is None else self.recorder.request + 1


class MapgenDover(Workload):
    """Offline and cold-start CLI path: ``mapgen`` then ``localize`` per k."""

    name = "mapgen-dover"
    setups = 15  # each takes ≈ 0.03 s
    latency = staticmethod(sum)  # one round: the ten commands one after another

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.deploy = os.path.join(DATA, "dover.deploy")
        self.scan_path = os.path.join(workdir, "scan.txt")
        self.store_path = {k: os.path.join(workdir, f"dover_k{k}.map") for k in DOVER_K}
        self.expected: dict[int, str] = {}

    def _cli(self, argv) -> tuple[int, str, float]:
        self.next_request()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
        return rc, out.getvalue(), elapsed

    def _mapgen(self, k):
        return self._cli(["mapgen", "--deploy", self.deploy, "--grid", str(MAPGEN_GRID_M),
                          "--k", str(k), "--out", self.store_path[k]])

    def _localize(self, k):
        return self._cli(["localize", "--store", self.store_path[k], "--scan", self.scan_path,
                          "--k", str(k)])

    def setup(self):
        config = evaluate.load_config(os.path.join(DATA, "dover.cfg"))
        deployment = model.load_deployment(self.deploy)
        (point,) = propagation.gen_test_points(
            deployment.width, deployment.height, 1, rng=seeded_rng(self.seed, 0))
        window = propagation.synth_window(
            point, deployment, config.params(), duration_s=config.duration_s,
            cadence_s=config.cadence_s, rng=seeded_rng(self.seed, 1))
        localize.save_scan(window, self.scan_path)
        self.scan = localize.aggregate_scan(localize.load_scan(self.scan_path))
        # Warm the CLI path once on the smallest store before timing.
        self._mapgen(7)
        self._localize(7)

    def _store_region(self, k, subset, sig) -> tuple[str, str] | None:
        header = "map " + " ".join(map(str, subset))
        prefix = f"region {model.signature_to_text(sig)} "
        with open(self.store_path[k]) as fh:
            in_map = False
            for line in fh:
                if line.startswith("map "):
                    in_map = line.rstrip("\n") == header
                elif in_map and line.startswith(prefix):
                    return tuple(line.split()[2:4])
        return None

    def _localize_is_sound(self, k, line) -> bool:
        fields = line.split()
        if fields == ["missed"]:
            return True
        if len(fields) != 5 or fields[0] != "estimate":
            return False
        sig = model.parse_signature(fields[3])
        subset = tuple(int(i) for i in fields[4].split("-"))
        values = self.scan.values
        order = tuple(sorted(subset, key=lambda i: (-values[i], i)))
        return (
            len(subset) == k
            and order == sig
            and self._store_region(k, subset, sig) == (fields[1], fields[2])
        )

    def block(self):
        """One round: five ``mapgen`` commands, then five cold ``localize``."""
        for k in DOVER_K:
            result = self.outcomes.guard(self._mapgen, k)
            if result is None:
                continue
            rc, out, elapsed = result
            self.op_times.append(elapsed)
            with open(self.store_path[k]) as fh:
                digest = sha256_text(fh.read())
            if k not in self.expected:
                self.digest_lines.append(f"mapgen k={k} {digest}")
            self.outcomes.record(
                rc == 0 and out.startswith("wrote ")
                and digest == self.refs["store_sha256"][MAPGEN_STORES][str(k)],
                f"mapgen k={k}: rc={rc} sha256={digest}",
            )
        for k in DOVER_K:
            result = self.outcomes.guard(self._localize, k)
            if result is None:
                continue
            rc, out, elapsed = result
            self.op_times.append(elapsed)
            line = out.strip()
            if k not in self.expected and rc == 0 and self._localize_is_sound(k, line):
                self.expected[k] = line  # later rounds must repeat it
                self.digest_lines.append(f"localize k={k} {line}")
            self.outcomes.record(
                rc == 0 and line == self.expected.get(k),
                f"localize k={k}: rc={rc} output {line!r}",
            )


def scan_pool(deployment, config, seed: int):
    """Seeded windows at random points with the scenario's window parameters."""
    points = propagation.gen_test_points(
        deployment.width, deployment.height, POOL_WINDOWS, rng=seeded_rng(seed, 0))
    params = config.params()
    windows = [
        propagation.synth_window(p, deployment, params, duration_s=config.duration_s,
                                 cadence_s=config.cadence_s, rng=seeded_rng(seed, i + 1))
        for i, p in enumerate(points)
    ]
    return points, windows


def pool_outcomes(points, windows, stores):
    """(k, outcome, point, scan) for every request of one pass, in request order."""
    rows = []
    for point, window in zip(points, windows):
        scan = localize.aggregate_scan(window)
        for k in DOVER_K:
            rows.append((k, localize.localize(scan, stores, k), point, scan))
    return rows


class ScanStreamDover(Workload):
    """Closed loop, one client: ``aggregate_scan`` + ``localize`` per request."""

    name = "scan-stream-dover"
    # Each takes 1.4-2.5 s, the first the longest; the median of 3 read
    # either ≈ 1.6 or ≈ 2.0 s depending on the host's phase.
    setups = 7

    def setup(self):
        self.config = evaluate.load_config(os.path.join(DATA, "dover.cfg"))
        self.deployment = model.load_deployment(self.config.deployment)
        self.stores = evaluate.build_stores(self.deployment, DOVER_K, GRID_M)
        self.points, self.windows = scan_pool(self.deployment, self.config, self.seed)

    def check_stores(self):
        self.digest_lines += store_digests(self.stores, "dover", self.refs, self.outcomes)

    def prepare(self):
        rows = pool_outcomes(self.points, self.windows, self.stores)
        self.expected = []
        for k, outcome, _, scan in rows:
            # A degraded k answers from the store of the smaller k.
            ok = not isinstance(outcome, localize.Estimate) or estimate_is_sound(
                scan, self.stores[len(outcome.subset)], outcome)
            self.outcomes.record(ok, f"unsound estimate {outcome_text(outcome)}")
            self.expected.append(outcome)
            self.digest_lines.append(f"k={k} {outcome_text(outcome)}")
        # The default-seed pool against the reference, whatever the seed.
        if self.seed != DEFAULT_SEED:
            rows = pool_outcomes(*scan_pool(self.deployment, self.config, DEFAULT_SEED), self.stores)
        got = miss_summary((k, o, p) for k, o, p, _ in rows)
        self.reference_summary = got
        self.outcomes.record(
            summary_matches(got, self.refs["scan_stream"]),
            f"default-seed pool summary {got} differs from the reference",
        )

    def block(self):
        """One pass over the pool: every (window, k) pair once, k cycling 3..7."""
        stores, expected = self.stores, self.expected
        aggregate, locate = localize.aggregate_scan, localize.localize
        j = 0
        for window in self.windows:
            for k in DOVER_K:
                self.next_request()
                t0 = time.perf_counter()
                try:
                    outcome = locate(aggregate(window), stores, k)
                except Exception:  # a failed request is counted, not fatal
                    outcome = None
                elapsed = time.perf_counter() - t0
                self.op_times.append(elapsed)
                ok = outcome == expected[j]
                self.outcomes.record(ok, "" if ok else f"request {j}: {outcome!r} != {expected[j]!r}")
                j += 1


class EvalSweepEcc(Workload):
    """The paper's window-duration experiment on the ``ecc`` scenario."""

    name = "eval-sweep-ecc"
    setups = 9  # each takes ≈ 0.3 s; the median of 5 spread 0.25 between runs

    def setup(self):
        self.config = evaluate.load_config(os.path.join(DATA, "ecc.cfg"))
        self.deployment = model.load_deployment(self.config.deployment)
        self.stores = evaluate.build_stores(
            self.deployment, self.config.k_values, self.config.cell_size)
        self.timed_config = dataclasses.replace(self.config, test_points=SWEEP_POINTS)
        self.config_seeds = [self.seed * 1000 + i for i in range(SWEEP_SEEDS)]
        self.expected: dict[int, list[str]] = {}

    def _sweep(self, config, seed):
        return evaluate.window_sweep(config, SWEEP_DURATIONS, seed=seed, stores=self.stores)

    def sweep_lines(self, sweep) -> list[str]:
        lines = []
        for duration, report in sorted(sweep.items()):
            for k, rep in sorted(report.per_k.items()):
                errs = " ".join(f"{e:.6f}" for e in rep.errors)
                lines.append(f"{duration:g}s k={k} points={rep.n_points} missed={rep.missed} errors={errs}")
        return lines

    def sweep_is_sound(self, sweep) -> bool:
        diagonal = math.hypot(self.deployment.width, self.deployment.height)
        return sorted(sweep) == list(SWEEP_DURATIONS) and all(
            sorted(report.per_k) == sorted(self.config.k_values)
            and rep.n_points == SWEEP_POINTS
            and rep.missed + len(rep.errors) == rep.n_points
            and all(0.0 <= e <= diagonal for e in rep.errors)
            for report in sweep.values()
            for rep in report.per_k.values()
        )

    def check_stores(self):
        self.digest_lines += store_digests(self.stores, "ecc", self.refs, self.outcomes)

    def prepare(self):
        got = self.reference_summary = sweep_summary(self._sweep(self.config, self.config.seed))
        want = self.refs["eval_sweep"]
        self.outcomes.record(
            got.keys() == want.keys() and all(summary_matches(got[d], want[d]) for d in want),
            f"default-seed sweep summary {got} differs from the reference",
        )

    def block(self):
        """One cycle: a ``window_sweep`` for each derived config seed."""
        for seed in self.config_seeds:
            self.next_request()
            t0 = time.perf_counter()
            sweep = self.outcomes.guard(self._sweep, self.timed_config, seed)
            elapsed = time.perf_counter() - t0
            if sweep is None:
                continue
            self.op_times.append(elapsed)
            lines = self.sweep_lines(sweep)
            if seed not in self.expected and self.sweep_is_sound(sweep):
                self.expected[seed] = lines
                self.digest_lines += [f"seed={seed} {ln}" for ln in lines]
            self.outcomes.record(lines == self.expected.get(seed), f"sweep seed={seed} output differs")


def sweep_summary(sweep) -> dict:
    """Per duration, the per-k missed count and median error (6 decimals)."""
    return {
        f"{duration:g}": {
            "missed": {str(k): rep.missed for k, rep in sorted(report.per_k.items())},
            "median_error_m": {
                str(k): round(rep.median_error, 6) if rep.errors else None
                for k, rep in sorted(report.per_k.items())
            },
        }
        for duration, report in sorted(sweep.items())
    }


WORKLOADS = {w.name: w for w in (MapgenDover, ScanStreamDover, EvalSweepEcc)}
