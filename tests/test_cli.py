"""End-to-end command-line workflow: mapgen, simulate, localize, evaluate."""

import hashlib
import math
import os
import subprocess
import sys
from importlib import resources

import pytest

from apseq import evaluate, mapgen
from apseq.cli import main
from apseq.evaluate import load_config, run_experiment, simulate
from apseq.localize import scan_to_text
from apseq.mapgen import load_map_store
from apseq.model import ApDeployment, deployment_to_text, load_deployment, save_deployment

CONFIG = """\
deployment = quad.deploy
k_values = 2, 3
cell_size = 0.5
sigma_db = 1.5
test_points = 4
duration_s = 2.0
cadence_s = 0.5
seed = 11
out_dir = results
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    dep = ApDeployment(
        width=12.0,
        height=9.0,
        aps=((1, 1.0, 1.0), (2, 11.0, 1.5), (3, 6.0, 8.0), (4, 10.0, 7.5)),
    )
    save_deployment(dep, d / "quad.deploy")
    (d / "quad.cfg").write_text(CONFIG)
    return d


class TestMapgen:
    def test_builds_and_reports(self, workspace, capsys):
        store_path = workspace / "quad_k2.map"
        rc = main([
            "mapgen", "--deploy", str(workspace / "quad.deploy"),
            "--grid", "0.5", "--k", "2", "--out", str(store_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 maps" in out  # C(4, 2)
        store = load_map_store(store_path)
        assert store.k == 2
        assert store.n_maps == 6

    def test_missing_deployment_file(self, workspace, capsys):
        rc = main([
            "mapgen", "--deploy", str(workspace / "absent.deploy"),
            "--k", "2", "--out", str(workspace / "x.map"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("area", ["inf 9", "12 inf"])
    def test_non_finite_area_is_reported(self, workspace, capsys, area):
        path = workspace / "infinite.deploy"
        path.write_text(f"APSEQ-DEPLOY v1\narea {area}\nap 1 1.0 1.0\nap 2 2.0 2.0\n")
        rc = main(["mapgen", "--deploy", str(path), "--k", "2", "--out", str(workspace / "x.map")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deployment_fault_names_the_file(self, workspace, capsys):
        path = workspace / "fractional_id.deploy"
        path.write_text("APSEQ-DEPLOY v1\narea 12 9\nap 1.5 1.0 1.0\nap 2 2.0 2.0\n")
        rc = main(["mapgen", "--deploy", str(path), "--k", "2", "--out", str(workspace / "x.map")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: malformed ap line 'ap 1.5 1.0 1.0'\n"

    def test_huge_grid_is_reported_before_any_cell_exists(self, workspace, capsys, monkeypatch):
        def no_partition(deployment, grid):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(mapgen, "_partition", no_partition)
        path = workspace / "huge.deploy"
        path.write_text("APSEQ-DEPLOY v1\narea 1000000 1000000\nap 1 1.0 1.0\nap 2 2.0 2.0\n")
        rc = main(["mapgen", "--deploy", str(path), "--grid", "0.2", "--k", "2",
                   "--out", str(workspace / "huge.map")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid of 5000000 x 5000000 cells exceeds the limit")
        assert not (workspace / "huge.map").exists()


# Runs the CLI in a child process whose address space is capped at 1.5 GB, so
# that a size check that no longer fires ends in a MemoryError, not in swap.
CAPPED_MAIN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from apseq.cli import main
sys.exit(main(sys.argv[1:]))
"""
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_capped(*argv):
    return subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
    )


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize(
    "keys, message",
    [
        ("test_point_mode = grid\ntest_points = 100000\n",
         "10000000000 test points (grid mode, test_points = 100000) exceed the limit of 100000"),
        ("duration_s = 1000000\ncadence_s = 0.001\n",
         "window of 1000000000 instants x 4 APs exceeds the limit of 1000000 samples"),
    ],
    ids=["grid-points", "long-window"],
)
def test_oversized_config_is_an_error_under_a_memory_cap(workspace, tmp_path, command, keys, message):
    config = tmp_path / "oversized.cfg"
    config.write_text(f"deployment = {workspace / 'quad.deploy'}\nk_values = 2, 3\ncell_size = 0.5\n{keys}")
    result = run_capped(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert (result.returncode, result.stderr) == (2, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


# 14 APs in 60 x 40 m: at 0.5 m their cells hold 1510 orderings of all 14,
# so the C(14, 7) = 3432 maps of k = 7 would take 5 182 320 map rows.
FOURTEEN_APS = ApDeployment(width=60.0, height=40.0, aps=(
    (1, 38.2, 10.8), (2, 2.5, 0.7), (3, 48.8, 36.5), (4, 36.4, 29.2), (5, 32.6, 37.4),
    (6, 49.0, 0.1), (7, 51.4, 1.3), (8, 43.8, 7.0), (9, 51.8, 21.7), (10, 18.0, 16.9),
    (11, 1.7, 5.0), (12, 40.2, 25.9), (13, 36.9, 15.3), (14, 59.8, 39.2),
))


@pytest.mark.parametrize("command", ["mapgen", "localize"])
def test_oversized_map_build_is_an_error_under_a_memory_cap(prepared, tmp_path, command):
    save_deployment(FOURTEEN_APS, tmp_path / "fourteen.deploy")
    # A store file whose one map line makes the loader rebuild all 3432 maps.
    (tmp_path / "fourteen.map").write_text(
        f"APSEQMAP v1\n{deployment_to_text(FOURTEEN_APS)}grid 0.500000\nmap 1 2 3 4 5 6 7\n")
    argv = {
        "mapgen": ["--deploy", str(tmp_path / "fourteen.deploy"), "--grid", "0.5", "--k", "7",
                   "--out", str(tmp_path / "out.map")],
        "localize": ["--store", str(tmp_path / "fourteen.map"),
                     "--scan", str(prepared / "loc_scans" / "scan_000.txt"), "--k", "7"],
    }[command]
    result = run_capped(command, *argv)
    message = "3432 AP subsets x 1510 orderings = 5182320 map rows exceed the limit of 1000000"
    assert (result.returncode, result.stderr) == (2, f"error: {message}\n")
    assert not (tmp_path / "out.map").exists()


class TestSimulate:
    def test_writes_scans_and_truth(self, workspace, capsys):
        out_dir = workspace / "scans"
        rc = main(["simulate", "--config", str(workspace / "quad.cfg"),
                   "--out", str(out_dir)])
        assert rc == 0
        assert "wrote 4 scans" in capsys.readouterr().out
        truth = (out_dir / "truth.csv").read_text().splitlines()
        assert truth[0] == "point,x,y,scan_file"
        assert len(truth) == 5
        for idx in range(4):
            assert (out_dir / f"scan_{idx:03d}.txt").exists()
            row = truth[idx + 1].split(",")
            assert int(row[0]) == idx
            assert row[3] == f"scan_{idx:03d}.txt"

    def test_seed_override_changes_points(self, workspace):
        a_dir, b_dir = workspace / "seed_a", workspace / "seed_b"
        main(["--seed", "77", "simulate", "--config", str(workspace / "quad.cfg"),
              "--out", str(a_dir)])
        main(["simulate", "--config", str(workspace / "quad.cfg"),
              "--out", str(b_dir)])
        assert (a_dir / "truth.csv").read_text() != (b_dir / "truth.csv").read_text()

    @pytest.mark.parametrize("seed", [None, 77])
    def test_writes_the_experiment_that_evaluate_runs(self, workspace, seed):
        out_dir = workspace / f"tied_{seed}"
        seed_args = [] if seed is None else ["--seed", str(seed)]
        main(seed_args + ["simulate", "--config", str(workspace / "quad.cfg"),
                          "--out", str(out_dir)])
        config = load_config(workspace / "quad.cfg")
        report = run_experiment(config, seed=seed)
        rows = [row.split(",") for row in (out_dir / "truth.csv").read_text().splitlines()[1:]]
        assert [row[1:3] for row in rows] == [[f"{x:.6f}", f"{y:.6f}"] for x, y in report.points]
        pairs = list(simulate(config, load_deployment(config.deployment), seed))
        assert len(pairs) == len(rows)
        for row, (_, window) in zip(rows, pairs):
            assert (out_dir / row[3]).read_text() == scan_to_text(window)

    def test_bad_cell_size_is_refused_before_any_scan(self, workspace, capsys):
        bad = workspace / "nan_cell.cfg"
        bad.write_text(CONFIG.replace("cell_size = 0.5", "cell_size = nan"))
        out_dir = workspace / "nan_cell_scans"
        rc = main(["simulate", "--config", str(bad), "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: cell_size must be finite and positive\n"
        assert not out_dir.exists()

    def test_repeat_runs_are_identical(self, workspace):
        a_dir, b_dir = workspace / "rep_a", workspace / "rep_b"
        argv = ["simulate", "--config", str(workspace / "quad.cfg")]
        main(argv + ["--out", str(a_dir)])
        main(argv + ["--out", str(b_dir)])
        assert (a_dir / "truth.csv").read_text() == (b_dir / "truth.csv").read_text()
        assert (a_dir / "scan_000.txt").read_text() == (b_dir / "scan_000.txt").read_text()


@pytest.fixture(scope="module")
def prepared(workspace):
    main(["mapgen", "--deploy", str(workspace / "quad.deploy"),
          "--grid", "0.5", "--k", "2", "--out", str(workspace / "loc_k2.map")])
    main(["simulate", "--config", str(workspace / "quad.cfg"),
          "--out", str(workspace / "loc_scans")])
    return workspace


class TestLocalize:
    def test_estimate_line_and_error(self, prepared, capsys):
        capsys.readouterr()
        rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                   "--scan", str(prepared / "loc_scans" / "scan_000.txt"),
                   "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        fields = out.split()
        assert fields[0] in ("estimate", "missed")
        if fields[0] == "estimate":
            x, y = float(fields[1]), float(fields[2])
            truth = (prepared / "loc_scans" / "truth.csv").read_text().splitlines()[1]
            tx, ty = float(truth.split(",")[1]), float(truth.split(",")[2])
            # estimate must at least be inside the area and a sane distance
            assert 0.0 <= x <= 12.0 and 0.0 <= y <= 9.0
            assert math.hypot(x - tx, y - ty) < 15.0
            assert len(fields) == 5

    def test_ap_outside_the_deployment_is_ignored(self, prepared, capsys):
        scan = prepared / "loc_scans" / "scan_000.txt"
        lines = scan.read_text().splitlines()
        instants = sorted({ln.split()[1] for ln in lines[1:]}, key=float)
        foreign = prepared / "foreign_scan.txt"
        foreign.write_text("\n".join(lines + [f"sample {t} 99 -45.000000" for t in instants]) + "\n")
        outputs = []
        for path in (scan, foreign):
            capsys.readouterr()
            rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                       "--scan", str(path), "--k", "2"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_k_mismatch_is_reported(self, prepared, capsys):
        rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                   "--scan", str(prepared / "loc_scans" / "scan_000.txt"),
                   "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: store/k mismatch (no store for k=3)\n"

    @pytest.mark.parametrize("k", ["0", "1", "-3"])
    def test_k_below_two_is_refused_before_the_scan_is_judged(self, prepared, capsys, k):
        rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                   "--scan", str(prepared / "loc_scans" / "scan_000.txt"), "--k", k])
        assert rc == 2
        assert capsys.readouterr().err == f"error: k must be at least 2 (got {k})\n"

    def test_corrupt_scan_is_reported(self, prepared, capsys):
        bad = prepared / "bad_scan.txt"
        bad.write_text("APSEQ-SCAN v1\nsample zero 1 -40\n")
        rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                   "--scan", str(bad), "--k", "2"])
        assert rc == 2
        assert "malformed sample" in capsys.readouterr().err

    def test_huge_rss_is_reported(self, prepared, capsys):
        # finite values whose cluster sum overflows to inf
        huge = prepared / "huge_scan.txt"
        huge.write_text(
            "APSEQ-SCAN v1\nsample 0.000 2 1e308\nsample 0.000 3 1e308\n"
            "sample 0.000 4 -78.5\n"
        )
        rc = main(["localize", "--store", str(prepared / "loc_k2.map"),
                   "--scan", str(huge), "--k", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_metrics(self, workspace, capsys):
        out_dir = workspace / "metrics"
        rc = main(["evaluate", "--config", str(workspace / "quad.cfg"),
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k=2:" in out and "k=3:" in out
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "k,points,missed_rate,median_error_m,mean_error_m,build_ms,maps"
        assert len(summary) == 3
        assert (out_dir / "cdf_k2.csv").exists()
        assert (out_dir / "cdf_k3.csv").exists()

    def test_default_out_dir_comes_from_config(self, workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["evaluate", "--config", str(workspace / "quad.cfg")])
        assert rc == 0
        assert (tmp_path / "results" / "summary.csv").exists()

    def test_bad_config_is_reported(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("deployment = quad.deploy\nk_values = 2\nwanted = nope\n")
        rc = main(["evaluate", "--config", str(bad)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


# sha256 of each file that `apseq --seed 7 evaluate` writes for a bundled
# config, summary.csv without its build_ms column (wall time).  Recorded
# before the sweep ranked each scan once for every k and aggregated every
# duration from one accumulate, so that the outcomes of the experiment stay
# as they were.
SEED7_DIGESTS = {
    "dover": {
        "cdf_k3.csv": "56aacaf5f66d6ec1c2a88526a87b95fabf90a3b1878f5238e8d93e44add79b64",
        "cdf_k4.csv": "a17bc177aaa4b862c6199c6c4ffcf0a28c52329bc73632cd1d408a80ed427f36",
        "cdf_k5.csv": "662ba88385b2f994ecba1df9ec625df629e0b2b8b2e6145931118099e8c2b6d0",
        "cdf_k6.csv": "18ea6321ce4075e65e98049e214ad0c38fcbd3e4325eac75830e7e007372f07d",
        "cdf_k7.csv": "40a3949eb21efaceea2602bd70b3941a253f924048993e949c567cf2092e1545",
        "summary.csv": "dbbacfa6a66f2227b2c20bcc6d58d37efca587948d6717b8b6e8df211ad4bc3d",
    },
    "ecc": {
        "cdf_k4.csv": "dbecaad6813b3bd400bdbedc95d4e2295bf13dcaa10e4eace4301bc408eac63b",
        "cdf_k5.csv": "89a5b449d9360f1f2a871021991b90dd5be953eb41b626022d3ee1bc19f9011d",
        "cdf_k6.csv": "9ae2ab6d6cbfa395664f8b8eafd95fd487f9eda17d474ce33966c71cd466bf29",
        "cdf_k7.csv": "d328affac64d703f76372052cd030b343f339cef787c690368499fac57608f36",
        "summary.csv": "95ca9fcf4325e17f13f65c335efcb623273cec18f8e037edb4a4cf0272bd3318",
    },
}


@pytest.mark.parametrize("name", sorted(SEED7_DIGESTS))
def test_seed7_evaluate_of_a_bundled_config_is_pinned(name, tmp_path, capsys):
    config = resources.files("apseq") / "data" / f"{name}.cfg"
    assert main(["--seed", "7", "evaluate", "--config", str(config), "--out", str(tmp_path)]) == 0
    got = {}
    for path in sorted(tmp_path.iterdir()):
        text = path.read_text()
        if path.name == "summary.csv":
            build_ms = text.splitlines()[0].split(",").index("build_ms")
            rows = (line.split(",") for line in text.splitlines())
            text = "".join(",".join(row[:build_ms] + row[build_ms + 1:]) + "\n" for row in rows)
        got[path.name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SEED7_DIGESTS[name]


class TestNegativeSeed:
    @pytest.fixture(autouse=True)
    def no_stores(self, monkeypatch):
        def build_stores(*args, **kwargs):
            raise AssertionError("a store was built")

        monkeypatch.setattr(evaluate, "build_stores", build_stores)

    def test_config_seed_is_refused(self, workspace, capsys):
        bad = workspace / "negative_seed.cfg"
        bad.write_text(CONFIG.replace("seed = 11", "seed = -4"))
        rc = main(["evaluate", "--config", str(bad), "--out", str(workspace / "neg_a")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -4\n"

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_seed_override_is_refused(self, workspace, capsys, command):
        out_dir = workspace / f"neg_{command}"
        rc = main(["--seed", "-1", command, "--config", str(workspace / "quad.cfg"),
                   "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out_dir.exists()


class TestArgumentErrors:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_mapgen_requires_k(self):
        with pytest.raises(SystemExit):
            main(["mapgen", "--deploy", "d", "--out", "o"])
