"""A seeded sweep of small random configs through the command line.

Every run must end in a documented exit code: 0, or 1, 2, 3 with one
stderr line, or with one line per unconfirmed branch radius.
``verify-index`` must print PASS or find r = 1 degenerate.  On a flat
metric with constant f the located radii and multiplicities must match
the discrete pencil of ``reference.pencil_crossings``.
"""

import random

from smalescan import cli, conjugate

import reference

SEED = 20240801
N_CONFIGS = 100
KAPPAS = (0.0, 1.0, -1.0, 4.0, -50.0)
TERMS = ("", "x1", "x1*x{d}", "r2")
UNCONFIRMED = "verification failure: no confirmed branch at r* = "


def random_config(rng: random.Random):
    """(subcommand, config text) of one small random run."""
    dim = rng.choice((1, 2))
    resolution = rng.randint(2, 200) if dim == 1 else rng.randint(1, 10)
    # Flat metrics with constant f, whose radii the pencil gives exactly,
    # in 40 percent of the runs.
    if rng.random() < 0.4:
        kappa, term = 0.0, ""
    else:
        kappa, term = rng.choice(KAPPAS), rng.choice(TERMS).format(d=dim)
    f = f"{rng.uniform(-60.0, 10.0):.3f}"
    if term:
        f += f" + {rng.uniform(-20.0, 20.0):.3f}*{term}"
    text = (
        f"metric.kappa = {kappa}\n"
        f"problem.f = {f}\n"
        f"problem.cubic_b = {rng.choice((0.0, 1.0, -1.0))}\n"
        f"mesh.dim = {dim}\n"
        f"mesh.resolution = {resolution}\n"
        f"scan.grid_points = {rng.randint(2, 30)}\n"
        f"branch.steps = {rng.randint(2, 10)}\n"
    )
    return rng.choice(cli.SUBCOMMANDS), text


def located(out):
    """[(r*, m)] a run wrote, from conjugate.csv, crossing.csv (m x m rows
    per radius) or index_report.txt; None when it wrote none of them."""
    if (out / "conjugate.csv").is_file():
        rows = (out / "conjugate.csv").read_text().splitlines()[1:]
        return [(float(r), int(m)) for r, m, _ in (row.split(",") for row in rows)]
    if (out / "crossing.csv").is_file():
        rows = (out / "crossing.csv").read_text().splitlines()[1:]
        m = {}
        for row in rows:
            r, i = row.split(",")[:2]
            m[float(r)] = max(m.get(float(r), 0), int(i))
        return sorted(m.items())
    if (out / "index_report.txt").is_file():
        lines = (out / "index_report.txt").read_text().splitlines()
        if lines[0].startswith("ABORT"):
            return None
        return [(float(a.split("=")[1]), int(b.split("=")[1]))
                for a, b in (line.split() for line in lines[4:])]
    return None


def check_run(subcommand, path, out, code, err):
    """Why one run breaks the contract, or None."""
    lines = err.splitlines()
    if code == cli.EXIT_OK and lines:
        return f"exit 0 with stderr {err!r}"
    if code not in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VERIFY, cli.EXIT_DEGENERATE):
        return f"exit {code}"
    if code != cli.EXIT_OK and not (
        len(lines) == 1 or all(line.startswith(UNCONFIRMED) for line in lines)
    ):
        return f"exit {code} with stderr {err!r}"
    if subcommand == "verify-index" and code != cli.EXIT_DEGENERATE:
        if code != cli.EXIT_OK:
            return f"verify-index exit {code}: {err!r}"
        verdict = (out / "index_report.txt").read_text().splitlines()[0]
        if not verdict.endswith(" PASS"):
            return f"verify-index reports {verdict!r}"
    found = located(out)
    if found is None:
        return None
    asm = cli.Pipeline(cli.load_config(path), out).assembler
    f = asm.spec.f_constant
    if asm.metric.kappa != 0.0 or f is None:
        return None
    tol = conjugate.BISECTION_TOL[asm.mesh.dim]
    exact = reference.pencil_crossings(asm, 16, tol) if f < 0.0 else []
    if [m for _, m in found] != [m for _, m in exact] or any(
        abs(r - r_exact) > tol for (r, _), (r_exact, _) in zip(found, exact)
    ):
        return f"located {found}, the pencil has {exact}"
    return None


def test_random_configs_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for i in range(N_CONFIGS):
        subcommand, text = random_config(rng)
        path = tmp_path / f"{i}.cfg"
        path.write_text(text)
        out = tmp_path / f"o{i}"
        code = cli.main([subcommand, "--config", str(path), "--out", str(out)])
        why = check_run(subcommand, path, out, code, capsys.readouterr().err)
        if why is not None:
            failures.append(f"{subcommand} on\n{text}-> {why}")
    assert not failures, "\n\n".join(failures)
