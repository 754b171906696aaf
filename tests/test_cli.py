import subprocess
import sys
from pathlib import Path

import pytest

from smalescan import cli, conjugate, spectral

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CONFIG_1D = """
metric.kind = euclidean
metric.dim = 1
problem.f = -52.210207281762692   # -(2.3 pi)^2
problem.nonlinearity = cubic
problem.cubic_b = 1.0
mesh.dim = 1
mesh.resolution = 400
scan.r_min = 0.001
scan.grid_points = 100
branch.steps = 10
branch.step_size = 0.001
output.dir = out
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_1D)
    return path


class TestConfigParsing:
    def test_roundtrip(self, config_file):
        cfg = cli.load_config(config_file)
        assert cfg.mesh_resolution == 400
        assert cfg.problem_nonlinearity == "cubic"

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "nope.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D + "\nscan.grid_pionts = 10\n")
        with pytest.raises(cli.ConfigError, match="grid_pionts"):
            cli.load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("metric.dim = 1\n")
        with pytest.raises(cli.ConfigError, match="problem.f"):
            cli.load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D + "\nmesh.dim = 1\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("metric.dim = 1", "metric.dim = 2"))
        with pytest.raises(cli.ConfigError, match="mesh.dim"):
            cli.load_config(path)

    def test_bad_expression(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("-52.210207281762692   # -(2.3 pi)^2", "exp(x1)"))
        with pytest.raises(cli.ConfigError, match="problem.f"):
            cli.load_config(path)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_shipped_config_loads(self, name):
        cfg = cli.load_config(CONFIG_DIR / name)
        assert cfg.mesh_dim == cfg.metric_dim

    def test_r_min_floor(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("scan.r_min = 0.001", "scan.r_min = 1e-5"))
        with pytest.raises(cli.ConfigError, match="r_min"):
            cli.load_config(path)


class TestRun:
    def test_missing_config_exits_1(self, tmp_path):
        assert cli.run("scan", tmp_path / "none.cfg") == cli.EXIT_USAGE

    def test_unknown_subcommand_exits_1(self, config_file):
        assert cli.run("frobnicate", config_file) == cli.EXIT_USAGE

    def test_1d_resolution_one_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("mesh.resolution = 400", "mesh.resolution = 1"))
        assert cli.run("scan", path, out_dir=tmp_path / "o") == cli.EXIT_USAGE

    def test_overflowing_potential_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("-52.210207281762692   # -(2.3 pi)^2", "1e400"))
        assert cli.run("scan", path, out_dir=tmp_path / "o") == cli.EXIT_USAGE

    def test_factorization_breakdown_exits_2(self, config_file, tmp_path, monkeypatch, capsys):
        def rejected(H, *args, **kwargs):
            raise spectral.FactorizationError("zero diagonal pivot")

        monkeypatch.setattr(conjugate, "inertia", rejected)
        assert cli.run("scan", config_file, out_dir=tmp_path / "o") == cli.EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("numerical breakdown:") and err.count("\n") == 1

    def test_count_drop_exits_2(self, config_file, tmp_path, monkeypatch, capsys):
        # 0 -> 2 -> 1 across the grid used to be written to scan.csv with exit 0
        monkeypatch.setattr(
            conjugate, "_n_neg_evaluator",
            lambda asm: lambda r: 0 if r < 0.3 else (2 if r < 0.6 else 1),
        )
        out = tmp_path / "o"
        assert cli.run("scan", config_file, out_dir=out) == cli.EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("verification failure: negative count drops from 2")
        assert err.count("\n") == 1
        assert not (out / "scan.csv").exists()

    def test_scan_writes_csv(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("scan", config_file, out_dir=out) == cli.EXIT_OK
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "r,n_neg"
        assert len(lines) == 101
        last = lines[-1].split(",")
        assert last[-1] == "4"

    def test_conjugate_csv(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("conjugate", config_file, out_dir=out) == cli.EXIT_OK
        lines = (out / "conjugate.csv").read_text().splitlines()
        assert lines[0] == "r_star,multiplicity,bracket_width"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        for k, row in enumerate(rows, start=1):
            assert float(row[0]) == pytest.approx(k / 4.6, abs=1e-4)
            assert row[1] == "1"

    def test_crossing_csv(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("crossing", config_file, out_dir=out) == cli.EXIT_OK
        lines = (out / "crossing.csv").read_text().splitlines()
        assert lines[0] == "r_star,i,j,gamma_fd,gamma_bd,signature,agreement"
        assert len(lines) == 5  # four multiplicity-1 crossings
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[3]) < 0.0
            assert vals[5] == "-1"
            assert float(vals[6]) <= 0.02

    def test_verify_index_report(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("verify-index", config_file, out_dir=out) == cli.EXIT_OK
        text = (out / "index_report.txt").read_text()
        assert text.splitlines()[0] == "mu=4 sum_m=4 PASS"
        assert "corollary_bound=4" in text

    def test_verify_index_solves_the_r1_kernel_once(self, config_file, tmp_path,
                                                    monkeypatch):
        # One kernel eigensolve per located radius plus the r = 1 guard.
        calls = []
        solve = conjugate.kernel_eigenpairs

        def counted(H, S, k):
            calls.append(k)
            return solve(H, S, k)

        monkeypatch.setattr(conjugate, "kernel_eigenpairs", counted)
        out = tmp_path / "o"
        assert cli.run("verify-index", config_file, out_dir=out) == cli.EXIT_OK
        located = (out / "index_report.txt").read_text().count("r_star=")
        assert located == 4
        assert len(calls) == located + 1

    def test_bifurcate_writes_branches(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("bifurcate", config_file, out_dir=out) == cli.EXIT_OK
        files = sorted(out.glob("branch_*.csv"))
        assert len(files) == 4
        lines = files[0].read_text().splitlines()
        assert lines[0] == "r,h1_norm,residual_norm,newton_iters,converged"
        # the supercritical side carries all branch.steps samples
        assert len(lines) >= 11
        assert all(line.split(",")[4] == "1" for line in lines[1:])

    def test_all_runs_everything(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("all", config_file, out_dir=out) == cli.EXIT_OK
        for name in ("scan.csv", "conjugate.csv", "crossing.csv", "index_report.txt"):
            assert (out / name).is_file()

    def test_determinism_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run("conjugate", config_file, out_dir=out1) == cli.EXIT_OK
        assert cli.run("conjugate", config_file, out_dir=out2) == cli.EXIT_OK
        for name in ("scan.csv", "conjugate.csv"):
            if (out1 / name).exists():
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "conjugate.csv").read_bytes() == (out2 / "conjugate.csv").read_bytes()

    @pytest.mark.parametrize("via", ["--out", "output.dir"])
    def test_output_dir_naming_a_file_exits_1(self, config_file, tmp_path, capsys, via):
        taken = tmp_path / "taken"
        taken.write_text("")
        if via == "--out":
            code = cli.main(["scan", "--config", str(config_file), "--out", str(taken)])
        else:
            config_file.write_text(CONFIG_1D.replace("output.dir = out",
                                                     f"output.dir = {taken}"))
            code = cli.main(["scan", "--config", str(config_file)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert err.count("\n") == 1

    def test_mesh_dump(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_1D + "\nmesh.dump = true\n")
        out = tmp_path / "o"
        assert cli.run("scan", path, out_dir=out) == cli.EXIT_OK
        assert (out / "nodes.csv").is_file()
        assert (out / "elements.csv").is_file()

    def test_degenerate_endpoint_exits_3(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text(
            "metric.kind = euclidean\n"
            "metric.dim = 1\n"
            "problem.f = -61.685027506808488\n"  # -(2.5 pi)^2
            "mesh.dim = 1\n"
            "mesh.resolution = 24000\n"
            "scan.grid_points = 50\n"
        )
        out = tmp_path / "o"
        assert cli.run("verify-index", path, out_dir=out) == cli.EXIT_DEGENERATE
        assert "degenerate" in (out / "index_report.txt").read_text()


class TestMainEntry:
    def test_usage_error_exit_code(self):
        assert cli.main(["scan"]) == cli.EXIT_USAGE  # missing --config

    def test_two_threads_scan_matches_one_thread(self, config_file, tmp_path):
        scans = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            code = cli.main(["scan", "--config", str(config_file), "--out", str(out),
                             "--threads", threads])
            assert code == cli.EXIT_OK
            scans.append((out / "scan.csv").read_bytes())
        assert scans[0] == scans[1]

    def test_subprocess_invocation(self, config_file, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "smalescan.cli", "verify-index",
             "--config", str(config_file), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "index_report.txt").read_text().startswith("mu=4 sum_m=4 PASS")

    def test_zero_threads_exits_1(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["scan", "--config", str(config_file), "--out", str(out),
                         "--threads", "0"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1
        assert not (out / "scan.csv").exists()

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG_1D.encode() + b"# caf\xe9\n")
        out = tmp_path / "o"
        code = cli.main(["scan", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1
        assert not (out / "scan.csv").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowing_negative_kappa_exits_1(self, tmp_path, capsys, dim):
        path = tmp_path / "hyp.cfg"
        path.write_text(
            "metric.kind = constant_curvature\n"
            f"metric.dim = {dim}\n"
            "metric.kappa = -1e6\n"
            "problem.f = -36.0\n"
            f"mesh.dim = {dim}\n"
            "mesh.resolution = 8\n"
        )
        out = tmp_path / "o"
        code = cli.main(["all", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: metric.kappa:") and err.count("\n") == 1
        assert not out.exists()
