"""Acceptance suite: one test per criterion, at the stated tolerances.

Every criterion prints one ``[acceptance] criterion N: PASS`` line when
it holds (run with ``pytest -s`` to see them); a failed assertion marks
the criterion failed.  Shared pipelines are computed once per module:
the 1D oscillator at resolution 2000, the Euclidean disc at 60 rings,
and the unit-curvature cap at 40 rings.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jn_zeros

from smalescan import branch, cli, conjugate, fem, metric, problem
from smalescan.fem import Assembler

import reference

C_OSC = (2.3 * np.pi) ** 2
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _announce(n, label):
    print(f"\n[acceptance] criterion {n} ({label}): PASS")


# ---------------------------------------------------------------------------
# Shared pipelines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def osc_pipeline():
    """Criterion 1 scenario: f = -(2.3 pi)^2, resolution 2000, 1D."""
    mesh = fem.build_mesh(1, 2000)
    met = metric.MetricModel()
    spec = problem.ProblemSpec(-C_OSC)
    asm = Assembler(mesh, met, spec)
    t0 = time.perf_counter()
    sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 200))
    conjs = conjugate.find_conjugate_radii(asm, sc)
    conjugate.endpoint_kernel_gap(asm)
    report = conjugate.verify_index(sc, conjs)
    elapsed = time.perf_counter() - t0
    return dict(mesh=mesh, met=met, spec=spec, asm=asm, scan=sc,
                conjs=conjs, report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def disc_pipeline():
    """Criterion 2 scenario: Euclidean disc, f = -36, 60 rings."""
    mesh = fem.build_mesh(2, 60)
    met = metric.MetricModel()
    spec = problem.ProblemSpec(-36.0)
    asm = Assembler(mesh, met, spec)
    t0 = time.perf_counter()
    sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 200))
    conjs = conjugate.find_conjugate_radii(asm, sc)
    conjugate.endpoint_kernel_gap(asm)
    report = conjugate.verify_index(sc, conjs)
    elapsed = time.perf_counter() - t0
    return dict(mesh=mesh, met=met, spec=spec, asm=asm, scan=sc,
                conjs=conjs, report=report, elapsed=elapsed)


def sphere_radial_zeros(c, m, t_end=1.0):
    """Zeros in (0, t_end) of the regular radial solution on the unit
    sphere: R'' + cot(t) R' + (c - m^2/sin^2 t) R = 0, R ~ t^m at 0."""
    t0 = 1e-8

    def rhs(t, y):
        return [y[1], -np.cos(t) / np.sin(t) * y[1] - (c - m * m / np.sin(t) ** 2) * y[0]]

    y0 = [t0 ** m, m * t0 ** (m - 1) if m > 0 else 0.0]
    sol = solve_ivp(rhs, (t0, t_end), y0, rtol=1e-12, atol=1e-300,
                    dense_output=True, max_step=5e-3, first_step=1e-8)
    ts = np.linspace(t0, t_end, 3000)
    R = sol.sol(ts)[0]
    zeros = []
    for i in range(len(ts) - 1):
        if R[i] * R[i + 1] < 0:
            zeros.append(brentq(lambda t: sol.sol(t)[0], ts[i], ts[i + 1], xtol=1e-13))
    return zeros


@pytest.fixture(scope="module")
def sphere_pipeline():
    """Criterion 4 scenario: kappa = 1, f = -36, 40 rings, plus oracle."""
    oracle = []
    m = 0
    while True:
        zs = sphere_radial_zeros(36.0, m)
        if not zs and m > 0:
            break
        oracle.extend((z, 1 if m == 0 else 2) for z in zs)
        m += 1
    oracle.sort()

    mesh = fem.build_mesh(2, 40)
    met = metric.MetricModel(1.0)
    spec = problem.ProblemSpec(-36.0)
    asm = Assembler(mesh, met, spec)
    sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 200))
    conjs = conjugate.find_conjugate_radii(asm, sc)
    conjugate.endpoint_kernel_gap(asm)
    report = conjugate.verify_index(sc, conjs)
    return dict(mesh=mesh, met=met, spec=spec, asm=asm, scan=sc,
                conjs=conjs, report=report, oracle=oracle)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_sturm_liouville_oracle(osc_pipeline):
    p = osc_pipeline
    conjs, report = p["conjs"], p["report"]
    assert len(conjs) == 4
    for k, cj in enumerate(conjs, start=1):
        assert abs(cj.r_star - k / 4.6) <= 1e-4
        assert cj.multiplicity == 1
    assert report.morse_index_at_1 == 4
    assert report.sum_m == 4
    assert report.identity_holds
    assert p["elapsed"] <= 60.0, f"pipeline took {p['elapsed']:.1f}s"
    _announce(1, "1D Sturm-Liouville oracle")


def test_criterion_2_bessel_oracle(disc_pipeline):
    p = disc_pipeline
    conjs, report = p["conjs"], p["report"]
    exact = [
        (jn_zeros(0, 1)[0] / 6.0, 1),
        (jn_zeros(1, 1)[0] / 6.0, 2),
        (jn_zeros(2, 1)[0] / 6.0, 2),
        (jn_zeros(0, 2)[1] / 6.0, 1),
    ]
    assert len(conjs) == 4
    for cj, (r_exact, m_exact) in zip(conjs, exact):
        assert abs(cj.r_star - r_exact) / r_exact <= 0.02
        assert cj.multiplicity == m_exact
    assert report.morse_index_at_1 == 6
    assert report.sum_m == 6
    assert report.identity_holds
    assert report.corollary_bound == 3
    assert p["elapsed"] <= 600.0, f"pipeline took {p['elapsed']:.1f}s"
    _announce(2, "2D Bessel oracle")


def test_criterion_3_crossing_form_agreement(osc_pipeline, disc_pipeline):
    # 1D: two-method agreement <= 1%, closed form -2.3 pi^2 within 0.5%
    p = osc_pipeline
    mesh, met, spec, asm = p["mesh"], p["met"], p["spec"], p["asm"]
    mass = Assembler(mesh, met, problem.ProblemSpec(1.0)).h(1.0) - asm.gram()
    for k, cj in enumerate(p["conjs"], start=1):
        rep = conjugate.verify_crossing(asm, cj)
        assert rep.agreement <= 0.01
        assert np.all(np.linalg.eigvalsh(rep.gamma_fd) < 0.0)
        assert abs(rep.signature) == cj.multiplicity
        if k == 1:
            v = cj.kernel_basis[:, 0]
            gamma_l2 = rep.gamma_fd[0, 0] / float(v @ (mass @ v))
            closed_form = -2.3 * np.pi ** 2  # = -2 c r* at r* = 1/4.6
            assert abs(gamma_l2 - closed_form) / abs(closed_form) <= 0.005

    # 2D: agreement <= 1%, negative definite, |signature| = m
    q = disc_pipeline
    for cj in q["conjs"]:
        rep = conjugate.verify_crossing(q["asm"], cj)
        assert rep.agreement <= 0.01
        assert np.all(np.linalg.eigvalsh(rep.gamma_fd) < 0.0)
        assert abs(rep.signature) == cj.multiplicity
    _announce(3, "crossing-form agreement")


def test_criterion_4_constant_curvature(sphere_pipeline):
    p = sphere_pipeline
    conjs, report, oracle = p["conjs"], p["report"], p["oracle"]
    assert len(conjs) == len(oracle)
    first_fem, first_oracle = conjs[0].r_star, oracle[0][0]
    assert abs(first_fem - first_oracle) / first_oracle <= 0.01
    oracle_count = sum(m for _, m in oracle)
    assert report.morse_index_at_1 == oracle_count
    assert report.sum_m == oracle_count
    assert report.identity_holds
    for cj, (z, m_exact) in zip(conjs, oracle):
        assert cj.multiplicity == m_exact
        assert abs(cj.r_star - z) / z <= 0.01
    _announce(4, "constant-curvature shooting oracle")


def test_criterion_5_bifurcation_witness(osc_pipeline):
    p = osc_pipeline
    mesh, met = p["mesh"], p["met"]
    spec = problem.ProblemSpec(-C_OSC, 1.0)
    asm = Assembler(mesh, met, spec)
    step = 1e-3
    for cj in p["conjs"]:
        confirmed = []
        for direction in (+1, -1):
            tr = branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0],
                                     direction, 100, step)
            if tr.confirmed:
                confirmed.append(tr)
        assert confirmed, f"no confirmed branch at r* = {cj.r_star}"
        tr = confirmed[0]
        assert abs(tr.intercept - cj.r_star) <= step
        # pitchfork exponent read off inside the asymptotic decade
        # (log-spaced subsample; the full example window is bent by
        # finite-amplitude effects, see the branch module tests)
        slope = reference.amplitude_exponent(tr, (1e-3, 1e-2))
        assert 0.45 <= slope <= 0.55
    for r in (0.5, 0.3):
        clean, samples = reference.multistart_no_small_solutions(
            asm, r, n_seeds=20, seed_norm=1e-2)
        assert clean
        assert len(samples) == 20
    _announce(5, "bifurcation witness")


def test_criterion_6_property_suite(osc_pipeline, disc_pipeline, sphere_pipeline,
                                    tmp_path_factory):
    # monotone n_neg along every scan, and zero at r_min
    for p in (osc_pipeline, disc_pipeline, sphere_pipeline):
        counts = p["scan"].n_neg
        assert np.all(np.diff(counts) >= 0)
        assert counts[0] == 0
        assert p["report"].morse_index_small_r == 0

    # Jacobian and energy-gradient consistency at 1e-6, both dims
    rng = np.random.default_rng(42)
    scenarios = [
        (fem.build_mesh(1, 400), metric.MetricModel(), problem.ProblemSpec(-C_OSC, 1.0)),
        (fem.build_mesh(2, 8), metric.MetricModel(1.0),
         problem.ProblemSpec(-12.0, 1.0)),
    ]
    for mesh, met, spec in scenarios:
        asm = Assembler(mesh, met, spec)
        u = 0.1 * rng.standard_normal(mesh.n_interior)
        r = 0.7
        J = asm.jacobian(r, u).toarray()
        res = asm.residual(r, u)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(mesh.n_interior)
            fd_jac = (asm.residual(r, u + h * d) - asm.residual(r, u - h * d)) / (2 * h)
            assert np.linalg.norm(fd_jac - J @ d) / np.linalg.norm(J @ d) <= 1e-6
            fd_grad = (reference.energy(asm, r, u + h * d)
                       - reference.energy(asm, r, u - h * d)) / (2 * h)
            assert abs(fd_grad - float(res @ d)) / abs(float(res @ d)) <= 1e-6

    # A(x) = w P_rad + a P_tan positive definite at every quadrature
    # point used: both radial profiles positive
    for p in (osc_pipeline, disc_pipeline, sphere_pipeline):
        asm = p["asm"]
        for r in (0.3, 1.0):
            for pts in (asm.grad_pts, asm.mass_pts):
                t = r * np.linalg.norm(pts, axis=2)
                w, a = metric.coefficients(p["met"], t, p["mesh"].dim)
                assert np.all(w > 0.0) and np.all(a > 0.0)

    # determinism: identical runs produce byte-identical outputs
    cfg = CONFIG_DIR / "oscillator_1d.cfg"
    for sub, name in (("scan", "scan.csv"), ("conjugate", "conjugate.csv")):
        out1 = tmp_path_factory.mktemp(f"det_{sub}_1")
        out2 = tmp_path_factory.mktemp(f"det_{sub}_2")
        assert cli.run(sub, cfg, out_dir=out1) == cli.EXIT_OK
        assert cli.run(sub, cfg, out_dir=out2) == cli.EXIT_OK
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _announce(6, "property suite")


def test_criterion_7_assumption_policing(tmp_path_factory):
    out = tmp_path_factory.mktemp("degenerate")
    proc = subprocess.run(
        [sys.executable, "-m", "smalescan.cli", "verify-index",
         "--config", str(CONFIG_DIR / "degenerate_r1_1d.cfg"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert "degenerate" in proc.stderr.lower()
    _announce(7, "assumption policing")
