"""End-to-end command-line workflow: mapgen, simulate, localize, evaluate."""

import math

import pytest

from apseq.cli import main
from apseq.evaluate import load_config, run_experiment, simulate
from apseq.localize import scan_to_text
from apseq.mapgen import GridSpec, load_map_store
from apseq.model import ApDeployment, load_deployment, save_deployment

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

    def test_huge_grid_is_reported_before_any_cell_exists(self, workspace, capsys, monkeypatch):
        def no_centers(grid):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(GridSpec, "centers", no_centers)
        path = workspace / "huge.deploy"
        path.write_text("APSEQ-DEPLOY v1\narea 1000000 1000000\nap 1 1.0 1.0\nap 2 2.0 2.0\n")
        rc = main(["mapgen", "--deploy", str(path), "--grid", "0.2", "--k", "2",
                   "--out", str(workspace / "huge.map")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid of 5000000 x 5000000 cells exceeds the limit")
        assert not (workspace / "huge.map").exists()


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
        assert "store/k mismatch" in capsys.readouterr().err

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
