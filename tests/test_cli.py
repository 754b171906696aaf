import contextlib
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from smalescan import branch, cli, conjugate, problem, spectral

import reference

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

CONFIG_1D = """
problem.f = -52.210207281762692   # -(2.3 pi)^2
problem.cubic_b = 1.0
mesh.dim = 1
mesh.resolution = 400
scan.r_min = 0.001
scan.grid_points = 100
branch.steps = 10
branch.step_size = 0.001
output.dir = out
"""


def drop_the_count(monkeypatch):
    """Make the scan's counts read 0 -> 2 -> 1 across the grid."""
    monkeypatch.setattr(
        conjugate, "_n_neg_evaluator",
        lambda asm: lambda r: 0 if r < 0.3 else (2 if r < 0.6 else 1),
    )


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_1D)
    return path


class TestConfigParsing:
    def test_roundtrip(self, config_file):
        cfg = cli.load_config(config_file)
        assert cfg.mesh_resolution == 400
        assert cfg.problem_cubic_b == 1.0

    def test_kappa_and_cubic_b_are_used_as_given(self, tmp_path):
        # No selector key: kappa and b alone fix the curved, cubic model.
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_1D + "metric.kappa = 1.0\n")
        met, spec = cli.load_config(path).models
        assert met.kappa == 1.0
        assert spec.cubic_b == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "nope.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        # A typo, and the selector keys that kappa, b and mesh.dim replaced.
        path = tmp_path / "bad.cfg"
        for line in ("scan.grid_pionts = 10", "metric.kind = constant_curvature",
                     "metric.dim = 1", "problem.nonlinearity = cubic"):
            key = line.split(" = ")[0]
            path.write_text(CONFIG_1D + f"\n{line}\n")
            with pytest.raises(cli.ConfigError, match=f"unknown config key '{key}'"):
                cli.load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mesh.dim = 1\n")
        with pytest.raises(cli.ConfigError, match="problem.f"):
            cli.load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D + "\nmesh.dim = 1\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_bad_expression(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("-52.210207281762692   # -(2.3 pi)^2", "exp(x1)"))
        with pytest.raises(cli.ConfigError, match="problem.f"):
            cli.load_config(path)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_shipped_config_loads(self, name):
        kappa_b = {
            "degenerate_r1_1d.cfg": (0.0, 0.0),
            "disc_2d.cfg": (0.0, 0.0),
            "oscillator_1d.cfg": (0.0, 1.0),
            "sphere_cap_2d.cfg": (1.0, 0.0),
        }
        met, spec = cli.load_config(CONFIG_DIR / name).models
        assert (met.kappa, spec.cubic_b) == kappa_b[name]

    def test_readme_lists_every_config_key(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("=")[0].strip() for line in block.splitlines()
                if not line.lstrip().startswith("#")]
        assert keys == list(cli._KEYS)

    def test_r_min_floor(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("scan.r_min = 0.001", "scan.r_min = 1e-5"))
        with pytest.raises(cli.ConfigError, match="r_min"):
            cli.load_config(path)

    def test_grid_without_room_below_1(self, tmp_path):
        # 200 points on [r_min, 1] are closer than the doubles near 1.
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("scan.r_min = 0.001", "scan.r_min = 0.99999999999999")
                        .replace("scan.grid_points = 100", "scan.grid_points = 200"))
        with pytest.raises(cli.ConfigError, match="scan.r_min"):
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

    @pytest.mark.parametrize("f", [
        "(" * 400 + "1" + ")" * 400,
        "-" * 3000 + "1",
        "+".join(["1"] * 2001),
        "1" * 200 + "*" + "1" * 200,
    ], ids=["400_nested_parentheses", "3000_unary_minuses", "2001_term_sum",
            "200_digit_product"])
    def test_unusable_potential_exits_1(self, tmp_path, capsys, f):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_1D.replace("-52.210207281762692   # -(2.3 pi)^2", f))
        out = tmp_path / "o"
        code = cli.main(["conjugate", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: problem.f") and err.count("\n") == 1
        assert not out.exists()

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

    def test_unconverged_kernel_eigensolve_exits_2(self, config_file, tmp_path,
                                                    monkeypatch, capsys):
        def unconverged(A, k, **kwargs):
            raise spla.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(spectral.spla, "eigsh", unconverged)
        code = cli.main(["crossing", "--config", str(config_file),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("numerical breakdown: kernel eigensolve did not converge")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_count_drop_exits_2(self, config_file, tmp_path, monkeypatch, capsys):
        # 0 -> 2 -> 1 across the grid used to be written to scan.csv with exit 0
        drop_the_count(monkeypatch)
        out = tmp_path / "o"
        assert cli.run("scan", config_file, out_dir=out) == cli.EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("verification failure: negative count drops from 2")
        assert err.count("\n") == 1
        assert not (out / "scan.csv").exists()

    def test_unresolved_kernel_names_its_backward_error(self, tmp_path, capsys):
        # sqrt(-kappa) = 632 on 6 rings: the profile varies by orders of
        # magnitude across one ring, max|H| reaches 1e182 and the located
        # vector is no kernel vector at all; the message says so.
        path = tmp_path / "hyper.cfg"
        path.write_text("metric.kappa = -400000\nproblem.f = -36\n"
                        "mesh.dim = 2\nmesh.resolution = 6\n")
        code = cli.main(["crossing", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("verification failure: kernel vector residual ")
        assert "at r* = 0.6987520831738581 " in err
        backward = float(err.split("componentwise backward error ")[1].rstrip(")\n"))
        assert backward == pytest.approx(1.0, abs=0.005)

    def test_scan_that_raises_restores_the_allocator(self, config_file, tmp_path,
                                                     monkeypatch, fake_libc):
        drop_the_count(monkeypatch)
        assert cli.run("scan", config_file, out_dir=tmp_path / "o") == cli.EXIT_VERIFY
        assert fake_libc.calls == [
            ("mallopt", -4, 0), ("mallopt", -1, -1),
            ("mallopt", -4, 65536), ("mallopt", -1, 32 << 20), ("malloc_trim", 0),
        ]

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

    def test_verify_index_solves_one_kernel_per_radius(self, config_file, tmp_path,
                                                       monkeypatch):
        # One kernel eigensolve per located radius; the r = 1 check only counts.
        calls, at_one = [], []
        solve, check = conjugate.kernel_eigenpairs, conjugate.endpoint_kernel_gap

        def counted(H, S, k):
            calls.append(k)
            return solve(H, S, k)

        def checked(asm):
            before = len(calls)
            check(asm)
            at_one.append(len(calls) - before)

        monkeypatch.setattr(conjugate, "kernel_eigenpairs", counted)
        monkeypatch.setattr(conjugate, "endpoint_kernel_gap", checked)
        out = tmp_path / "o"
        assert cli.run("verify-index", config_file, out_dir=out) == cli.EXIT_OK
        located = (out / "index_report.txt").read_text().count("r_star=")
        assert located == 4
        assert calls == [1] * located
        assert at_one == [0]

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

    def test_branch_rows_are_newton_solutions(self, tmp_path):
        # At 2000 segments the kernel seeds just below r* have residuals
        # under the absolute Newton tolerance; a row must still come from
        # at least one Newton step, not from the seed left where it was.
        path = tmp_path / "fine.cfg"
        path.write_text(CONFIG_1D.replace("mesh.resolution = 400",
                                          "mesh.resolution = 2000"))
        out = tmp_path / "o"
        assert cli.run("bifurcate", path, out_dir=out) == cli.EXIT_OK
        files = sorted(out.glob("branch_*.csv"))
        assert len(files) == 4
        for f in files:
            for line in f.read_text().splitlines()[1:]:
                assert int(line.split(",")[3]) > 0, (f.name, line)

    def test_unconfirmed_branch_names_each_direction(self, tmp_path, monkeypatch,
                                                     capsys):
        # Linear problem: both directions fall back to the trivial
        # solution.  The -1 trace is rewritten to fail by its intercept.
        trace = branch.trace_branch

        def traced(asm, r_star, phi, direction, steps, step_size):
            tr = trace(asm, r_star, phi, direction, steps, step_size)
            if direction == -1:
                tr = dataclasses.replace(tr, failure=None, intercept=0.125)
            return tr

        monkeypatch.setattr(branch, "trace_branch", traced)
        path = tmp_path / "linear.cfg"
        path.write_text(CONFIG_1D.replace("problem.cubic_b = 1.0\n", ""))
        assert cli.run("bifurcate", path, out_dir=tmp_path / "o") == cli.EXIT_VERIFY
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line.startswith("verification failure: no confirmed branch at r* = ")
            assert "(+1: branch lost to the trivial solution at r = " in line
            assert line.endswith("; -1: intercept 0.12500000)")

    def test_all_runs_everything(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert cli.run("all", config_file, out_dir=out) == cli.EXIT_OK
        for name in ("scan.csv", "conjugate.csv", "crossing.csv", "index_report.txt"):
            assert (out / name).is_file()

    def test_all_keeps_the_heap_around_the_scan_alone(self, config_file, tmp_path,
                                                      monkeypatch):
        events = []

        @contextlib.contextmanager
        def kept_heap():
            events.append("enter")
            yield
            events.append("exit")

        def recorded(module, name):
            call = getattr(module, name)

            def wrapper(*args, **kwargs):
                events.append(name)
                return call(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(cli, "_kept_heap", kept_heap)
        for name in ("endpoint_kernel_gap", "scan", "find_conjugate_radii",
                     "verify_crossing"):
            recorded(conjugate, name)
        recorded(branch, "trace_branch")
        assert cli.run("all", config_file, out_dir=tmp_path / "o") == cli.EXIT_OK
        assert events[:4] == ["endpoint_kernel_gap", "enter", "scan", "exit"]
        assert set(events[4:]) == {"find_conjugate_radii", "verify_crossing",
                                   "trace_branch"}

    def test_every_factorization_uses_the_inertia_options(self, config_file, tmp_path,
                                                          monkeypatch):
        # Negative count, kernel eigensolve, Gram solve and Newton step
        # share one factorization with diagonal pivots.  All their matrices
        # share one sparsity pattern, so a run that starts from an empty
        # order slot finds the MMD order once and factors in natural order
        # on the permuted pattern from then on.
        splu = spla.splu
        options = []

        def recorded(A, **kwargs):
            options.append((kwargs.get("permc_spec"), kwargs.get("diag_pivot_thresh")))
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", recorded)
        monkeypatch.setattr(spectral, "_order", None)
        assert cli.run("all", config_file, out_dir=tmp_path / "o") == cli.EXIT_OK
        assert {thresh for _, thresh in options} == {0.0}
        assert [spec for spec, _ in options].count("MMD_AT_PLUS_A") == 1
        assert options.count(("NATURAL", 0.0)) == len(options) - 1 > 0

    @pytest.mark.parametrize("second", ["kept", "nullcontext"])
    def test_determinism_byte_identical(self, config_file, tmp_path, monkeypatch, second):
        # The second run keeps the scan's heap too, or leaves the allocator
        # alone: where the memory comes from changes no byte.
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run("conjugate", config_file, out_dir=out1) == cli.EXIT_OK
        if second == "nullcontext":
            monkeypatch.setattr(cli, "_kept_heap", contextlib.nullcontext)
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

    @pytest.mark.parametrize("subcommand, name, degenerate", [
        ("scan", "scan.csv", False),
        ("verify-index", "index_report.txt", False),
        ("verify-index", "index_report.txt", True),
    ], ids=["scan.csv", "index_report.txt", "index_report.txt-degenerate"])
    def test_unwritable_output_exits_1(self, config_file, tmp_path, monkeypatch, capsys,
                                       subcommand, name, degenerate):
        # A directory where the output file goes makes its write fail.
        if degenerate:
            def singular(asm):
                raise conjugate.DegenerateRadiusOneError("|lambda_min(H(1), S)| = 0")

            monkeypatch.setattr(conjugate, "endpoint_kernel_gap", singular)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = cli.main([subcommand, "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: ")
        assert err.count("\n") == 1

    def test_coarse_kernel_eigensolve_exits_0(self, tmp_path, capsys):
        # On a coarse mesh the shift-invert solve near r* scales the
        # kernel direction by about 1/lambda, so Y^T S Y is nearly singular.
        path = tmp_path / "coarse.cfg"
        path.write_text(
            "problem.f = -36.0\n"
            "mesh.dim = 1\n"
            "mesh.resolution = 12\n"
            "scan.grid_points = 20\n"
        )
        out = tmp_path / "o"
        code = cli.main(["verify-index", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        lines = (out / "index_report.txt").read_text().splitlines()
        assert lines[0] == "mu=3 sum_m=3 PASS"
        radii = [float(line.split()[0].split("=")[1]) for line in lines[4:]]
        assert radii == pytest.approx([k * np.pi / 12 for k in (1, 2, 3)], abs=0.03)

    def test_mesh_dump(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_1D + "\nmesh.dump = true\n")
        out = tmp_path / "o"
        assert cli.run("scan", path, out_dir=out) == cli.EXIT_OK
        assert (out / "nodes.csv").is_file()
        assert (out / "elements.csv").is_file()

    @pytest.mark.parametrize("dim, resolution, f", [(1, 200, "5"), (2, 10, "-1")],
                             ids=["1d_f5", "disc_f-1"])
    def test_clustered_spectrum_at_one_passes(self, tmp_path, capsys, dim, resolution, f):
        # The pencil eigenvalues of (H(1), S) nearest zero cluster (1.00004
        # in 1D; 0.828, 0.933, 0.933 on the disc), far from degenerate.
        path = tmp_path / "run.cfg"
        path.write_text(f"problem.f = {f}\nmesh.dim = {dim}\n"
                        f"mesh.resolution = {resolution}\n")
        out = tmp_path / "o"
        code = cli.main(["verify-index", "--config", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (cli.EXIT_OK, "")
        assert (out / "index_report.txt").read_text().startswith("mu=0 sum_m=0 PASS\n")

    @pytest.mark.parametrize("dim, resolution", [(1, 2), (2, 1)])
    def test_one_unknown_mesh_locates_its_radius(self, tmp_path, capsys, dim, resolution):
        # H(r*) vanishes on a one-unknown mesh, so its kernel residual is
        # scaled by S.
        path = tmp_path / "run.cfg"
        path.write_text(f"problem.f = -36\nmesh.dim = {dim}\n"
                        f"mesh.resolution = {resolution}\n")
        out = tmp_path / "o"
        code = cli.main(["conjugate", "--config", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (cli.EXIT_OK, "")
        rows = [line.split(",") for line in
                (out / "conjugate.csv").read_text().splitlines()[1:]]
        asm = cli.Pipeline(cli.load_config(path), out).assembler
        tol = conjugate.BISECTION_TOL[dim]
        exact = reference.pencil_crossings(asm, 8, tol)
        assert [int(m) for _, m, _ in rows] == [m for _, m in exact] == [1]
        assert abs(float(rows[0][0]) - exact[0][0]) <= tol

    def test_degenerate_endpoint_exits_3(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text(
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

    @pytest.mark.parametrize("second", ["kept", "nullcontext"])
    def test_two_threads_scan_matches_one_thread(self, config_file, tmp_path,
                                                 monkeypatch, second):
        # The two-thread run keeps the scan's heap too, or leaves the
        # allocator alone.
        scans = []
        for threads in ("1", "2"):
            if threads == "2" and second == "nullcontext":
                monkeypatch.setattr(cli, "_kept_heap", contextlib.nullcontext)
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

    def test_potential_parsed_once_per_run(self, config_file, tmp_path, monkeypatch):
        calls = []
        parse_field = problem.parse_field

        def counted(*args, **kwargs):
            calls.append(1)
            return parse_field(*args, **kwargs)

        monkeypatch.setattr(problem, "parse_field", counted)
        code = cli.main(["scan", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK
        assert len(calls) == 1

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

    # Grids whose allocation numpy refuses at once: 8e17 bytes exceed any
    # address space, and 1e19 points exceed numpy's maximum array size.
    @pytest.mark.parametrize("points", [10 ** 17, 10 ** 19])
    def test_unallocatable_scan_grid_exits_1(self, tmp_path, capsys, points):
        path = tmp_path / "huge.cfg"
        path.write_text(CONFIG_1D.replace("scan.grid_points = 100",
                                          f"scan.grid_points = {points}"))
        out = tmp_path / "o"
        code = cli.main(["scan", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: scan.grid_points = {points}: ") and err.count("\n") == 1
        assert not out.exists()

    # Meshes whose allocation numpy refuses at once, as for the scan grid
    # above; the polar mesh allocates all of its 1 + 3R(R + 1) nodes and
    # 6R^2 triangles before it builds a ring.
    @pytest.mark.parametrize("dim, resolution", [
        pytest.param(1, 10 ** 17, id=str(10 ** 17)),
        pytest.param(1, 10 ** 19, id=str(10 ** 19)),
        pytest.param(2, 10 ** 17, id=f"2d-{10 ** 17}"),
        pytest.param(2, 10 ** 19, id=f"2d-{10 ** 19}"),
    ])
    def test_unallocatable_1d_mesh_exits_1(self, tmp_path, capsys, dim, resolution):
        path = tmp_path / "huge.cfg"
        path.write_text(CONFIG_1D.replace("mesh.dim = 1\nmesh.resolution = 400",
                                          f"mesh.dim = {dim}\nmesh.resolution = {resolution}"))
        out = tmp_path / "o"
        code = cli.main(["scan", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: mesh.resolution = {resolution}: ")
        assert err.count("\n") == 1
        assert not out.exists()
