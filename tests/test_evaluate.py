"""Experiment configs, error statistics, and the evaluation harness."""

import math
import os
import tracemalloc
from dataclasses import MISSING, fields, replace
from importlib import resources

import numpy as np
import pytest

from apseq import evaluate
from apseq.evaluate import (
    MAX_TEST_POINTS,
    ExperimentConfig,
    ExperimentReport,
    KReport,
    build_stores,
    error_cdf,
    load_config,
    parse_config,
    run_experiment,
    simulate,
    window_sweep,
    write_report_csvs,
)
from apseq.localize import Estimate, aggregate_scan, localize
from apseq.model import ApDeployment, load_deployment, save_deployment
from apseq.propagation import PropagationParams

DATA = resources.files("apseq") / "data"

TINY_DEPLOY = ApDeployment(
    width=10.0,
    height=8.0,
    aps=((1, 1.0, 1.0), (2, 9.0, 1.5), (3, 5.0, 7.0), (4, 8.5, 6.5)),
)

TINY_CONFIG = """\
# tiny scenario for harness tests
deployment = tiny.deploy
k_values = 2, 3
cell_size = 0.5
sigma_db = 2.0
test_points = 5
duration_s = 2.0
cadence_s = 0.5
seed = 3
out_dir = results
"""

# Every ExperimentConfig field, each away from its default.
EVERY_KEY_CONFIG = """\
deployment = other.deploy
k_values = 4 5
cell_size = 0.25
p0_dbm = -35.5
gamma = 3.0
d0_m = 2.0
sigma_db = 1.5
detect_floor_dbm = -80.0
round_to_int = yes
test_point_mode = grid
test_points = 4
duration_s = 30.0
cadence_s = 0.5
seed = 9
out_dir = elsewhere
"""


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenario")
    save_deployment(TINY_DEPLOY, d / "tiny.deploy")
    (d / "tiny.cfg").write_text(TINY_CONFIG)
    return d


@pytest.fixture(scope="module")
def tiny_config(scenario_dir):
    return load_config(scenario_dir / "tiny.cfg")


class TestConfigParsing:
    def test_values_and_defaults(self, tiny_config):
        cfg = tiny_config
        assert cfg.k_values == (2, 3)
        assert cfg.cell_size == 0.5
        assert cfg.sigma_db == 2.0
        assert cfg.test_points == 5
        assert cfg.duration_s == 2.0
        assert cfg.seed == 3
        assert cfg.out_dir == "results"
        # untouched keys fall back to defaults
        assert cfg.gamma == 2.5
        assert cfg.p0_dbm == -30.0
        assert cfg.round_to_int is False
        assert cfg.test_point_mode == "random"

    def test_deployment_path_resolves_relative_to_config(self, scenario_dir, tiny_config):
        assert tiny_config.deployment == os.path.join(str(scenario_dir), "tiny.deploy")

    def test_k_values_accept_spaces_or_commas(self):
        a = parse_config("deployment = d\nk_values = 2 3 4\n")
        b = parse_config("deployment = d\nk_values = 2,3,4\n")
        assert a.k_values == b.k_values == (2, 3, 4)

    @pytest.mark.parametrize("raw, want", [("true", True), ("yes", True), ("1", True),
                                           ("false", False), ("no", False), ("0", False)])
    def test_boolean_spellings(self, raw, want):
        cfg = parse_config(f"deployment = d\nk_values = 2\nround_to_int = {raw}\n")
        assert cfg.round_to_int is want

    def test_every_field_is_a_config_key(self):
        keys = [ln.partition("=")[0].strip() for ln in EVERY_KEY_CONFIG.splitlines()]
        assert keys == [f.name for f in fields(ExperimentConfig)]
        cfg = parse_config(EVERY_KEY_CONFIG, base_dir="base")
        want = ExperimentConfig(
            deployment=os.path.join("base", "other.deploy"), k_values=(4, 5), cell_size=0.25,
            p0_dbm=-35.5, gamma=3.0, d0_m=2.0, sigma_db=1.5, detect_floor_dbm=-80.0,
            round_to_int=True, test_point_mode="grid", test_points=4, duration_s=30.0,
            cadence_s=0.5, seed=9, out_dir="elsewhere",
        )
        assert cfg == want
        for f in fields(ExperimentConfig):
            assert type(getattr(cfg, f.name)) is type(getattr(want, f.name)), f.name
            assert getattr(cfg, f.name) != f.default, f.name

    def test_propagation_defaults_are_shared(self):
        assert ExperimentConfig(deployment="d", k_values=(3,)).params() == PropagationParams()

    def test_docstring_lists_every_key_with_its_default(self):
        names = [f.name for f in fields(ExperimentConfig)]
        documented = {}
        for ln in ExperimentConfig.__doc__.splitlines():
            words = ln.split()
            if words and words[0] in names:
                documented[words[0]] = words[1]
        assert list(documented) == names
        for f in fields(ExperimentConfig):
            if f.default is not MISSING:
                cfg = parse_config(f"deployment = d\nk_values = 2\n{f.name} = {documented[f.name]}\n")
                assert getattr(cfg, f.name) == f.default, f.name

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\ndeployment = d\n  \nk_values = 2\n# tail\n")
        assert cfg.k_values == (2,)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("deployment = d\n", "missing required key 'k_values'"),
            ("k_values = 2\n", "missing required key 'deployment'"),
            ("deployment = d\nk_values = 2\nseed = 1\nseed = 2\n", "duplicate key"),
            ("deployment = d\nk_values = 2\ncolour = red\n", "unknown config key"),
            ("deployment = d\nk_values = two\n", "bad value for 'k_values'"),
            ("deployment = d\nk_values = 2\nsigma_db = much\n", "bad value for 'sigma_db'"),
            ("deployment = d\nk_values = 2\nsigma_db = nan\n", "sigma_db"),
            ("deployment = d\nk_values = 2\nround_to_int = maybe\n", "bad value"),
            ("deployment = d\nk_values 2\n", "malformed config line"),
            ("deployment = d\nk_values = 2\ncell_size = nan\n", "cell_size must be finite"),
            ("deployment = d\nk_values = 2\nseed = -4\n", "seed must be non-negative, got -4"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config(text)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(k_values=()), "k_values"),
            (dict(k_values=(1,)), "at least 2"),
            (dict(k_values=(2,), test_points=0), "test_points"),
            (dict(k_values=(2,), duration_s=math.inf), "duration_s"),
            (dict(k_values=(2,), cadence_s=math.nan), "cadence_s"),
            (dict(k_values=(2,), test_point_mode="spiral"), "unknown test-point mode"),
            (dict(k_values=(2,), duration_s=3.0, cadence_s=5.0), "duration_s"),
            (dict(k_values=(2,), p0_dbm=math.nan), "p0_dbm"),
            (dict(k_values=(3, 3, 4)), r"^k=3 is repeated in k_values$"),
        ],
    )
    def test_config_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(deployment="d", **kwargs)

    @pytest.mark.parametrize(
        "mode, side, points",
        [("grid", 100000, 10**10), ("grid", 317, 100489), ("random", 100001, 100001)],
    )
    def test_test_points_above_the_limit_refused(self, mode, side, points):
        # Only parsed: 10**10 grid points would be ~1 TB of point tuples.
        text = f"deployment = d\nk_values = 2\ntest_point_mode = {mode}\ntest_points = {side}\n"
        want = rf"^<string>: {points} test points \({mode} mode, test_points = {side}\) exceed the limit of 100000$"
        with pytest.raises(ValueError, match=want):
            parse_config(text)

    @pytest.mark.parametrize("mode, side, points", [("grid", 316, 99856), ("random", 100000, 100000)])
    def test_test_points_up_to_the_limit_accepted(self, mode, side, points):
        config = ExperimentConfig(deployment="d", k_values=(2,), test_point_mode=mode, test_points=side)
        assert config.n_points == points <= MAX_TEST_POINTS


class TestErrorCdf:
    def test_quarter_steps(self):
        assert error_cdf([1.0, 2.0, 3.0, 4.0]) == (
            (1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0),
        )

    def test_duplicates_merge_into_one_step(self):
        assert error_cdf([2.0, 3.0, 2.0]) == ((2.0, 2 / 3), (3.0, 1.0))

    def test_all_equal_is_a_single_jump(self):
        assert error_cdf([5.0, 5.0]) == ((5.0, 1.0),)

    def test_input_order_is_irrelevant(self):
        assert error_cdf([4.0, 1.0, 3.0, 2.0]) == error_cdf([1.0, 2.0, 3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty error list"):
            error_cdf([])

    def test_last_value_reaches_one(self):
        cdf = error_cdf([0.3, 1.7, 0.3, 2.2, 9.1])
        assert cdf[-1][1] == pytest.approx(1.0)
        levels = [c for _, c in cdf]
        assert levels == sorted(levels)


class TestKReport:
    def test_summary_statistics(self):
        rep = KReport(k=3, n_points=4, errors=(1.0, 3.0, 2.0), missed=1,
                      build_ms=12.5, n_maps=35)
        assert rep.missed_rate == pytest.approx(0.25)
        assert rep.median_error == pytest.approx(2.0)
        assert rep.mean_error == pytest.approx(2.0)

    def test_no_matches_gives_nan_errors(self):
        rep = KReport(k=3, n_points=2, errors=(), missed=2,
                      build_ms=1.0, n_maps=35)
        assert rep.missed_rate == 1.0
        assert rep.median_error != rep.median_error  # NaN
        assert rep.mean_error != rep.mean_error


class TestRunExperiment:
    def test_point_and_outcome_counts(self, tiny_config):
        report = run_experiment(tiny_config)
        assert len(report.points) == 5
        for k in (2, 3):
            rep = report.per_k[k]
            assert rep.n_points == 5
            assert len(rep.errors) + rep.missed == 5

    def test_same_seed_reproduces_everything(self, tiny_config):
        a = run_experiment(tiny_config)
        b = run_experiment(tiny_config)
        assert a.points == b.points
        for k in (2, 3):
            assert a.per_k[k].errors == b.per_k[k].errors
            assert a.per_k[k].missed == b.per_k[k].missed

    def test_seed_override_changes_the_draws(self, tiny_config):
        a = run_experiment(tiny_config)
        b = run_experiment(tiny_config, seed=99)
        assert a.points != b.points

    def test_prebuilt_stores_give_identical_results(self, tiny_config):
        deployment = TINY_DEPLOY
        stores = build_stores(deployment, tiny_config.k_values, tiny_config.cell_size)
        a = run_experiment(tiny_config, stores=stores)
        b = run_experiment(tiny_config, stores=stores)
        assert a.per_k == b.per_k

    def test_errors_are_finite_and_nonnegative(self, tiny_config):
        report = run_experiment(tiny_config)
        for rep in report.per_k.values():
            assert all(e >= 0.0 for e in rep.errors)
            assert all(e == e for e in rep.errors)


def sweep_oracle(config, durations, seed, stores):
    """Each duration's report from its own simulation, as one run at that duration."""
    deployment = load_deployment(config.deployment)
    reports = {}
    for d in durations:
        cfg = replace(config, duration_s=float(d))
        points, errors, missed = [], {k: [] for k in cfg.k_values}, dict.fromkeys(cfg.k_values, 0)
        for point, window in simulate(cfg, deployment, seed):
            points.append(point)
            scan = aggregate_scan(window)
            for k in cfg.k_values:
                outcome = localize(scan, stores, k)
                if isinstance(outcome, Estimate):
                    ex, ey = outcome.position
                    errors[k].append(float(np.hypot(ex - point[0], ey - point[1])))
                else:
                    missed[k] += 1
        per_k = {
            k: KReport(
                k=k,
                n_points=len(points),
                errors=tuple(errors[k]),
                missed=missed[k],
                build_ms=stores[k].build_ms,
                n_maps=stores[k].n_maps,
            )
            for k in cfg.k_values
        }
        reports[cfg.duration_s] = ExperimentReport(config=cfg, points=tuple(points), per_k=per_k)
    return reports


@pytest.fixture(scope="module")
def bundled():
    """name -> (config, its stores) for the bundled scenarios."""
    out = {}
    for name in ("dover", "ecc"):
        cfg = load_config(str(DATA / f"{name}.cfg"))
        stores = build_stores(load_deployment(cfg.deployment), cfg.k_values, cfg.cell_size)
        out[name] = (cfg, stores)
    return out


def per_head_sweep(config, durations, seed, stores):
    """The sweep as a plain loop over each point's one window: for every
    duration aggregate_scan(window, d), then localize at every k."""
    configs = {float(d): replace(config, duration_s=float(d)) for d in durations}
    deployment = load_deployment(config.deployment)
    points, errors = [], {d: {k: [] for k in config.k_values} for d in configs}
    for point, window in simulate(configs[max(configs)], deployment, seed):
        points.append(point)
        for d in configs:
            try:
                scan = aggregate_scan(window, d)
            except ValueError:
                continue
            for k in config.k_values:
                try:
                    outcome = localize(scan, stores, k)
                except ValueError:
                    continue
                if isinstance(outcome, Estimate):
                    ex, ey = outcome.position
                    errors[d][k].append(float(np.hypot(ex - point[0], ey - point[1])))
    n = len(points)
    return {
        d: ExperimentReport(config=cfg, points=tuple(points), per_k={
            k: KReport(k=k, n_points=n, errors=tuple(errs), missed=n - len(errs),
                       build_ms=stores[k].build_ms, n_maps=stores[k].n_maps)
            for k, errs in errors[d].items()
        })
        for d, cfg in configs.items()
    }


SWEEP = (12.0, 3.0, 60.0, 12.0)  # unsorted, with a duplicate


class TestWindowSweep:
    def test_noise_free_sweep_is_duration_invariant(self, scenario_dir):
        cfg = load_config(scenario_dir / "tiny.cfg")
        from dataclasses import replace

        quiet = replace(cfg, sigma_db=0.0)
        sweep = window_sweep(quiet, (1.0, 2.0))
        assert sweep[1.0].per_k[2].errors == sweep[2.0].per_k[2].errors
        assert sweep[1.0].per_k[2].missed == sweep[2.0].per_k[2].missed

    def test_reports_keyed_by_duration(self, tiny_config):
        sweep = window_sweep(tiny_config, (0.5, 1.0))
        assert set(sweep) == {0.5, 1.0}
        assert sweep[0.5].config.duration_s == 0.5

    @pytest.mark.parametrize(
        "durations, change",
        [((1.0, 0.0), {}), ((1.0, math.nan), {}), ((1.0,), {"cell_size": 0.0}),
         ((1.0,), {"cell_size": math.nan})],
        ids=["duration_s-0", "duration_s-nan", "cell_size-0", "cell_size-nan"],
    )
    def test_nonpositive_duration_rejected(self, tiny_config, durations, change):
        with pytest.raises(ValueError, match="must be finite and positive"):
            window_sweep(replace(tiny_config, **change), durations)

    def test_negative_seed_rejected_before_any_store(self, tiny_config, monkeypatch):
        def no_stores(*args, **kwargs):
            raise AssertionError("a store was built")

        monkeypatch.setattr(evaluate, "build_stores", no_stores)
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            window_sweep(tiny_config, (1.0,), seed=-2)
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            next(simulate(tiny_config, TINY_DEPLOY, seed=-2))

    def test_oversized_window_rejected_before_any_store(self, tiny_config, monkeypatch):
        def no_stores(*args, **kwargs):
            raise AssertionError("a store was built")

        monkeypatch.setattr(evaluate, "build_stores", no_stores)
        # The longest duration decides: 2 000 000 instants at the 0.5 s cadence.
        with pytest.raises(ValueError, match=(
            "^window of 2000000 instants x 4 APs exceeds the limit of 1000000 samples$"
        )):
            window_sweep(tiny_config, (1.0, 1e6))

    @pytest.mark.parametrize("change, seed, match", [
        ({}, -2, "^seed must be non-negative, got -2$"),
        ({"duration_s": 1e6}, None, "^window of 2000000 instants x 4 APs exceeds the limit of 1000000 samples$"),
    ], ids=["negative-seed", "oversized-window"])
    def test_simulate_refuses_when_called(self, tiny_config, change, seed, match):
        # The checks run at the call, before the first window is asked for.
        with pytest.raises(ValueError, match=match):
            simulate(replace(tiny_config, **change), TINY_DEPLOY, seed)

    def test_points_that_cannot_be_localized_are_misses(self):
        # With seed 7 on a 0.5 m grid, every -45 dBm point but one has no
        # signal or too few APs, which used to abort the run.  That one and
        # some -55 dBm scans degrade to k = 2, whose maps the map set builds
        # on first use.
        cfg = replace(load_config(str(DATA / "dover.cfg")), cell_size=0.5)
        deployment = load_deployment(cfg.deployment)
        stores = build_stores(deployment, cfg.k_values, cfg.cell_size)
        faint = replace(cfg, detect_floor_dbm=-55.0)
        reasons = set()
        for _, window in simulate(faint, deployment, seed=7):
            try:
                localize(aggregate_scan(window), stores, 3)
            except ValueError as exc:
                reasons.add(str(exc))
        assert reasons == {"no signal", "insufficient APs"}
        report = run_experiment(faint, seed=7, stores=stores)
        for rep in report.per_k.values():
            assert rep.missed + len(rep.errors) == rep.n_points == 27
            assert 0 < rep.missed < 27
        silent = run_experiment(replace(cfg, detect_floor_dbm=-45.0), seed=7, stores=stores)
        assert [rep.missed for rep in silent.per_k.values()] == [26] * len(cfg.k_values)

    def test_no_durations_give_no_reports(self, tiny_config):
        assert window_sweep(tiny_config, ()) == {}

    @pytest.mark.parametrize("name", ["dover", "ecc"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_one_simulation_per_duration(self, bundled, name, seed):
        cfg, stores = bundled[name]
        sweep = window_sweep(cfg, SWEEP, seed=seed, stores=stores)
        assert list(sweep) == [12.0, 3.0, 60.0]
        assert sweep == sweep_oracle(cfg, SWEEP, seed, stores)

    @pytest.mark.parametrize(
        "change",
        [
            {"sigma_db": 0.0},
            {"round_to_int": True},
            {"test_point_mode": "grid", "test_points": 3},
        ],
    )
    def test_matches_one_simulation_per_duration_when(self, bundled, change):
        base, stores = bundled["ecc"]
        cfg = replace(base, **change)
        assert window_sweep(cfg, SWEEP, seed=1, stores=stores) == sweep_oracle(cfg, SWEEP, 1, stores)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("dover", {}),
            ("ecc", {}),
            ("ecc", {"sigma_db": 0.0}),
            ("ecc", {"round_to_int": True}),
            ("ecc", {"test_point_mode": "grid", "test_points": 3}),
        ],
    )
    def test_matches_the_per_head_per_k_loop(self, bundled, name, change):
        base, stores = bundled[name]
        cfg = replace(base, **change)
        durations = (36.0, 3.0, 60.0, 6.0, 12.0, 3.0, 24.0)
        assert window_sweep(cfg, durations, seed=4, stores=stores) == per_head_sweep(cfg, durations, 4, stores)

    def test_run_experiment_is_the_one_duration_sweep(self, bundled):
        cfg, stores = bundled["ecc"]
        want = sweep_oracle(cfg, (cfg.duration_s,), 2, stores)[cfg.duration_s]
        assert run_experiment(cfg, seed=2, stores=stores) == want


def test_sweep_memory_is_bounded_by_its_batch():
    """The sweep locates one point's scans at a time, so its traced peak
    above what its reports keep does not grow with the test points:
    from 400 to 1 600 points it may grow by the few pointers a point's
    errors take, not by the ≈ 10 kB a point that held scans take."""
    cfg = replace(load_config(str(DATA / "ecc.cfg")), cell_size=1.0, duration_s=3.0)
    stores = build_stores(load_deployment(cfg.deployment), cfg.k_values, cfg.cell_size)
    window_sweep(replace(cfg, test_points=5), (3.0,), seed=5, stores=stores)  # regions are made on first use

    def working_peak(points: int) -> int:
        tracemalloc.start()
        try:
            sweep = window_sweep(replace(cfg, test_points=points), (3.0,), seed=5, stores=stores)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rep.n_points for rep in sweep[3.0].per_k.values()) == 4 * points
        return peak - kept

    small, large = working_peak(400), working_peak(1_600)
    assert large - small < 100 * 1_200, (small, large)


def timeless(result):
    """An experiment's reports with every k's build time zeroed: a wall time differs between builds."""
    reports = result if isinstance(result, dict) else {None: result}
    return {d: replace(r, per_k={k: replace(rep, build_ms=0.0) for k, rep in r.per_k.items()})
            for d, r in reports.items()}


def no_windows(*args, **kwargs):
    raise AssertionError("a window was drawn")


@pytest.mark.parametrize(
    "experiment",
    [lambda cfg, stores: run_experiment(cfg, stores=stores),
     lambda cfg, stores: window_sweep(cfg, (1.0, 2.0), stores=stores)],
    ids=["run_experiment", "window_sweep"],
)
class TestStoreChecks:
    def test_stores_of_another_deployment(self, tiny_config, experiment, monkeypatch):
        moved = ApDeployment(width=10.0, height=8.0, aps=TINY_DEPLOY.aps[:3] + ((4, 8.0, 6.5),))
        stores = build_stores(moved, tiny_config.k_values, tiny_config.cell_size)
        monkeypatch.setattr(evaluate, "synth_window", no_windows)
        with pytest.raises(ValueError, match="another deployment"):
            experiment(tiny_config, stores)

    def test_stores_on_another_grid(self, tiny_config, experiment, monkeypatch):
        stores = build_stores(TINY_DEPLOY, tiny_config.k_values, 1.0)
        monkeypatch.setattr(evaluate, "synth_window", no_windows)
        with pytest.raises(ValueError, match="grid"):
            experiment(tiny_config, stores)

    def test_no_store_for_a_configured_k(self, tiny_config, experiment):
        # A configured k the map set does not hold is built on first use.
        stores = build_stores(TINY_DEPLOY, (2,), tiny_config.cell_size)
        assert timeless(experiment(tiny_config, stores)) == timeless(experiment(tiny_config, None))
        assert sorted(stores) == [2, 3]

    def test_matching_stores_accepted(self, tiny_config, experiment):
        stores = build_stores(TINY_DEPLOY, tiny_config.k_values, tiny_config.cell_size)
        experiment(tiny_config, stores)

    def test_bundled_ecc_config_rejects_dover_stores(self, bundled, experiment):
        ecc = replace(bundled["ecc"][0], test_points=5)
        with pytest.raises(ValueError, match="another deployment"):
            experiment(ecc, bundled["dover"][1])


class TestReportCsvs:
    def test_files_and_headers(self, tiny_config, tmp_path):
        report = run_experiment(tiny_config)
        out = tmp_path / "out"
        written = write_report_csvs(report, out)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["cdf_k2.csv", "cdf_k3.csv", "summary.csv"]

        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "k,points,missed_rate,median_error_m,mean_error_m,build_ms,maps"
        assert len(summary) == 3
        assert summary[1].startswith("2,5,")
        assert summary[2].startswith("3,5,")

        for k in (2, 3):
            lines = (out / f"cdf_k{k}.csv").read_text().splitlines()
            assert lines[0] == "error_m,cdf"
            if len(lines) > 1:
                last = float(lines[-1].split(",")[1])
                assert last == pytest.approx(1.0)

    def test_summary_row_matches_report(self, tiny_config, tmp_path):
        report = run_experiment(tiny_config)
        write_report_csvs(report, tmp_path)
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        rep = report.per_k[2]
        assert int(row[0]) == 2
        assert int(row[1]) == rep.n_points
        assert float(row[2]) == pytest.approx(rep.missed_rate, abs=1e-6)
        assert int(row[6]) == rep.n_maps
