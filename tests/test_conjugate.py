import inspect

import numpy as np
import pytest
from scipy.special import jn_zeros

from smalescan import branch, conjugate, fem, metric, problem
from smalescan.fem import Assembler

from reference import pencil_crossings, smallest_eigenpairs

C_OSC = (2.3 * np.pi) ** 2


@pytest.fixture(scope="module")
def osc_1d():
    """1D oscillator at moderate resolution, shared across tests."""
    mesh = fem.build_mesh(1, 800)
    met = metric.MetricModel()
    spec = problem.ProblemSpec(-C_OSC)
    return Assembler(mesh, met, spec)


@pytest.fixture(scope="module")
def disc_2d():
    """Euclidean disc with f = -36 at test-scale resolution."""
    mesh = fem.build_mesh(2, 24)
    met = metric.MetricModel()
    spec = problem.ProblemSpec(-36.0)
    return Assembler(mesh, met, spec)


@pytest.fixture(scope="module")
def cap_xf():
    """Unit-curvature cap at 10 rings with an x-dependent f, and its
    located crossings (six simple ones: the x1 x2 term splits the
    double crossings of f = -36)."""
    mesh = fem.build_mesh(2, 10)
    spec = problem.ProblemSpec(problem.parse_field("-36 + 5*x1*x2 - 3*r2", 2))
    asm = Assembler(mesh, metric.MetricModel(1.0), spec)
    sc = conjugate.scan(asm, np.linspace(0.05, 1.0, 20))
    return asm, conjugate.find_conjugate_radii(asm, sc)


class TestScan:
    def test_positive_form_never_negative(self):
        mesh = fem.build_mesh(1, 100)
        met = metric.MetricModel()
        spec = problem.ProblemSpec(0.0)
        sc = conjugate.scan(Assembler(mesh, met, spec), np.linspace(1e-3, 1.0, 40))
        assert np.all(sc.n_neg == 0)
        assert sc.brackets() == []

    def test_oscillator_steps(self, osc_1d):
        asm = osc_1d
        grid = np.linspace(1e-3, 1.0, 120)
        sc = conjugate.scan(asm, grid)
        # n_neg(r) = floor(4.6 r) away from the discrete crossing shifts
        expect = np.floor(4.6 * grid + 1e-9).astype(int)
        mismatch = np.flatnonzero(sc.n_neg != expect)
        # disagreement only allowed within a grid cell of a crossing
        for i in mismatch:
            assert min(abs(grid[i] - k / 4.6) for k in range(1, 5)) < 0.01
        assert sc.n_neg[0] == 0
        assert sc.n_neg[-1] == 4

    def test_monotone_counts(self, osc_1d):
        asm = osc_1d
        sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 80))
        assert np.all(np.diff(sc.n_neg) >= 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_drop_raises(self, osc_1d, monkeypatch, threads):
        # 0 -> 2 -> 1 across the grid: the scan names both radii of the drop
        monkeypatch.setattr(
            conjugate, "_n_neg_evaluator",
            lambda asm: lambda r: 0 if r < 0.3 else (2 if r < 0.6 else 1),
        )
        with pytest.raises(conjugate.VerificationError,
                           match=r"drops from 2 at r = 0\.4 to 1 at r = 0\.7;"):
            conjugate.scan(osc_1d, [0.1, 0.4, 0.7], threads=threads)

    def test_threaded_scan_matches_sequential(self, osc_1d):
        asm = osc_1d
        grid = np.linspace(1e-3, 1.0, 30)
        a = conjugate.scan(asm, grid, threads=1)
        b = conjugate.scan(asm, grid, threads=3)
        assert np.array_equal(a.n_neg, b.n_neg)

    def test_grid_validation(self, osc_1d):
        asm = osc_1d
        with pytest.raises(ValueError):
            conjugate.scan(asm, [0.5, 0.4])
        with pytest.raises(ValueError):
            conjugate.scan(asm, [1e-5, 0.5])
        with pytest.raises(ValueError):
            conjugate.scan(asm, [0.5, 1.2])


class TestLocate:
    def test_oscillator_first_crossing(self, osc_1d):
        asm = osc_1d
        found = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.20, 0.23]))
        assert len(found) == 1
        cj = found[0]
        assert cj.multiplicity == 1
        assert cj.r_star == pytest.approx(1.0 / 4.6, abs=2e-6)
        assert cj.bracket_width <= 1e-8
        # kernel residual invariant
        H, S = asm.h(cj.r_star), asm.gram()
        v = cj.kernel_basis[:, 0]
        rel = np.linalg.norm(H @ v) / (abs(H).max() * np.sqrt(v @ (S @ v)))
        assert rel <= 1e-6

    def test_empty_bracket_rejected(self, osc_1d):
        asm = osc_1d
        assert conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.25, 0.30])) == []

    def test_split_and_recurse_separates_two_crossings(self, osc_1d):
        asm = osc_1d
        # bracket containing both 1/4.6 and 2/4.6
        found = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.18, 0.47]))
        assert len(found) == 2
        assert found[0].r_star == pytest.approx(1.0 / 4.6, abs=2e-6)
        assert found[1].r_star == pytest.approx(2.0 / 4.6, abs=5e-6)
        assert all(c.multiplicity == 1 for c in found)

    def test_disc_multiplicity_two(self, disc_2d):
        asm = disc_2d
        r_exact = jn_zeros(1, 1)[0] / 6.0
        found = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.62, 0.66]))
        assert len(found) == 1
        cj = found[0]
        assert cj.multiplicity == 2
        assert cj.r_star == pytest.approx(r_exact, rel=1e-2)
        assert cj.bracket_width <= 1e-6

    def test_multiplicity_equals_bracket_jump(self, disc_2d):
        asm = disc_2d
        found = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.62, 0.66]))
        cj = found[0]
        lo = conjugate.inertia(asm.h(cj.bracket[0]))
        hi = conjugate.inertia(asm.h(cj.bracket[1]))
        assert hi - lo == cj.multiplicity

    @pytest.mark.parametrize("fixture", ["osc_1d", "disc_2d"])
    def test_radii_match_the_discrete_pencil(self, request, fixture):
        # Flat metric, constant f: the discrete radii are known exactly, so
        # every localization must sit within the bisection tolerance of
        # them, with the pencil's cluster sizes as multiplicities.
        asm = request.getfixturevalue(fixture)
        tol = conjugate.BISECTION_TOL[asm.mesh.dim]
        sc = conjugate.scan(asm, [conjugate.R_MIN_FLOOR, 1.0])
        found = conjugate.find_conjugate_radii(asm, sc)
        exact = pencil_crossings(asm, 8, tol)
        assert [c.multiplicity for c in found] == [m for _, m in exact]
        for cj, (r, _) in zip(found, exact):
            assert abs(cj.r_star - r) <= tol

    @pytest.mark.parametrize("fixture", ["osc_1d", "disc_2d"])
    def test_at_most_eight_probes_per_located_bracket(self, request, fixture, monkeypatch):
        # Secant-placed probes: every probe is one counted factorization.
        asm = request.getfixturevalue(fixture)
        sc = conjugate.scan(asm, np.linspace(conjugate.R_MIN_FLOOR, 1.0, 200))
        calls, per_bracket = [], []
        inertia, bisect = conjugate.inertia, conjugate._bisect

        def counted(H, *args):
            calls.append(1)
            return inertia(H, *args)

        def bisect_counted(*args):
            before = len(calls)
            brackets = bisect(*args)
            per_bracket.append((len(calls) - before) / len(brackets))
            return brackets

        monkeypatch.setattr(conjugate, "inertia", counted)
        monkeypatch.setattr(conjugate, "_bisect", bisect_counted)
        found = conjugate.find_conjugate_radii(asm, sc)
        assert len(found) == 4 and len(per_bracket) == 4
        assert max(per_bracket) <= 8

    def test_bisection_raises_on_count_drop(self):
        # 0 -> 2 -> 1 on [0, 1] used to be clamped into one crossing near 0.3
        def n_neg(r):
            return 0 if r < 0.3 else (2 if r < 0.6 else 1)

        with pytest.raises(conjugate.VerificationError, match=r"drops from 2 at r = 0\.5"):
            conjugate._bisect(n_neg, 0.0, 0, 1.0, 1, 1e-8)

    def test_bisection_of_a_scan_cell_raises_on_count_drop(self, osc_1d, monkeypatch):
        # 0 -> 3 -> 2 on [0.1, 0.9]: the first bisection midpoint sees the drop
        asm = osc_1d
        monkeypatch.setattr(
            conjugate, "_n_neg_evaluator",
            lambda asm: lambda r: 0 if r < 0.3 else (3 if r < 0.6 else 2),
        )
        with pytest.raises(conjugate.VerificationError, match="drops from 3"):
            conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.1, 0.9]))


class TestCrossingForms:
    def test_fd_exact_for_quadratic_dependence(self, osc_1d):
        # Euclidean constant-f form is quadratic in r, so the central
        # difference equals the analytic derivative -2 c r u^T M u.
        asm = osc_1d
        cj = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.20, 0.23]))[0]
        gamma = conjugate.crossing_form_fd(asm, cj)
        K = asm.gram()
        M = (Assembler(asm.mesh, asm.metric, problem.ProblemSpec(1.0)).h(1.0) - K) / 1.0
        v = cj.kernel_basis[:, 0]
        expect = -2.0 * C_OSC * cj.r_star * float(v @ (M @ v))
        # exact up to subtraction noise eps*||K||*||v||^2 / (2 delta)
        assert gamma[0, 0] == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("r_star", [0.5, 1.0 - 1e-6])
    def test_fd_matches_closed_form(self, osc_1d, r_star):
        # H(r) = K - c r^2 M, so Gamma = -2 c r* V^T M V on any V; at
        # r* = 1 - 1e-6 the step r* + d leaves [0, 1]
        asm = osc_1d
        x = asm.mesh.nodes[~asm.mesh.boundary_nodes, 0]
        V = np.cos(0.5 * np.pi * x)[:, None]
        cj = conjugate.ConjugateRadius(
            r_star=r_star, multiplicity=1, kernel_basis=V, bracket=(r_star, r_star)
        )
        gamma = conjugate.crossing_form_fd(asm, cj)
        M = Assembler(asm.mesh, asm.metric, problem.ProblemSpec(1.0)).h(1.0) - asm.gram()
        expect = -2.0 * C_OSC * r_star * float(V[:, 0] @ (M @ V[:, 0]))
        assert gamma[0, 0] == pytest.approx(expect, rel=1e-6)

    def test_complex_step_matches_central_difference(self, cap_xf):
        # Curved metric, x-dependent f: H(r) is not polynomial in r, so
        # neither the complex step nor the central difference is exact.
        # The central difference with step 1e-4 r* is off by O(step^2);
        # measured 6.1e-11 to 6.4e-10 on these six crossings.
        asm, found = cap_xf
        assert len(found) == 6
        for cj in found:
            gamma = conjugate.crossing_form_fd(asm, cj)
            r0, V = cj.r_star, cj.kernel_basis
            d = 1e-4 * r0
            central = V.T @ ((asm.h(r0 + d) - asm.h(r0 - d)) @ V) / (2.0 * d)
            central = 0.5 * (central + central.T)
            assert gamma.dtype == np.float64 and np.array_equal(gamma, gamma.T)
            dist = np.linalg.norm(gamma - central) / np.linalg.norm(gamma)
            assert dist <= 1e-6, (r0, dist)

    def test_complex_step_assembles_once_per_crossing(self, cap_xf, monkeypatch):
        asm, found = cap_xf
        radii = []
        h = Assembler.h

        def counted(self, r):
            radii.append(r)
            return h(self, r)

        monkeypatch.setattr(Assembler, "h", counted)
        for cj in found:
            radii.clear()
            conjugate.crossing_form_fd(asm, cj)
            assert radii == [cj.r_star + 1e-20j * cj.r_star]

    def test_boundary_matches_continuum_closed_form(self):
        # continuum: both routes give -2/r* for the S-normalized kernel
        mesh = fem.build_mesh(1, 2000)
        met = metric.MetricModel()
        spec = problem.ProblemSpec(-C_OSC)
        asm = Assembler(mesh, met, spec)
        cj = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.20, 0.23]))[0]
        gamma_bd = conjugate.crossing_form_boundary(asm, cj)
        assert gamma_bd[0, 0] == pytest.approx(-2.0 / cj.r_star, rel=1e-4)

    def test_boundary_form_on_the_disc_is_rellichs(self):
        # Rellich: int_{dB} (d_n u)^2 dS = 2 lambda int u^2 for a Dirichlet
        # eigenfunction on the unit ball, and an S-normalized kernel vector
        # at r* has lambda int u^2 = 1, so Gamma = -(2/r*) I on every
        # kernel basis.  The discrete flux makes the error O(h^2).
        err = {}
        for rings in (20, 40):
            for k, (cj, rep) in enumerate(_near_two_crossings(0.0, rings)):
                dev = 0.5 * cj.r_star * rep.gamma_bd + np.eye(cj.multiplicity)
                err[rings, k] = np.linalg.norm(dev, 2)
        for k in range(2):
            assert err[40, k] <= 2.5e-3
            assert 3.5 <= err[20, k] / err[40, k] <= 4.5

    def test_boundary_form_agreement_is_second_order_on_the_cap(self):
        agreement = {
            rings: [rep.agreement for _, rep in _near_two_crossings(1.0, rings)]
            for rings in (20, 40)
        }
        for a20, a40 in zip(agreement[20], agreement[40]):
            assert a40 <= 0.01
            assert 3.5 <= a20 / a40 <= 4.5

    def test_two_method_agreement_1d(self):
        mesh = fem.build_mesh(1, 2000)
        met = metric.MetricModel()
        spec = problem.ProblemSpec(-C_OSC)
        asm = Assembler(mesh, met, spec)
        cj = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.20, 0.23]))[0]
        rep = conjugate.verify_crossing(asm, cj)
        assert rep.agreement <= 0.01
        assert rep.signature == -1

    def test_multiplicity_two_negative_definite(self, disc_2d):
        asm = disc_2d
        cj = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.62, 0.66]))[0]
        rep = conjugate.verify_crossing(asm, cj)
        eigs = np.linalg.eigvalsh(rep.gamma_fd)
        assert np.all(eigs < 0.0)
        assert rep.signature == -2
        assert abs(rep.signature) == cj.multiplicity
        assert rep.agreement <= 0.01
        assert np.array_equal(rep.gamma_bd, rep.gamma_bd.T)

    def test_unique_continuation_consequence(self, disc_2d):
        # boundary form strictly negative on every kernel vector
        asm = disc_2d
        cj = conjugate.find_conjugate_radii(asm, conjugate.scan(asm, [0.62, 0.66]))[0]
        gamma_bd = conjugate.crossing_form_boundary(asm, cj)
        for j in range(cj.multiplicity):
            assert gamma_bd[j, j] < -1e-3


def _near_two_crossings(kappa, rings):
    """(crossing, verify_crossing report) for the first simple (r near 0.40)
    and the first double (r near 0.64) crossing of f = -36 on the disc
    (kappa = 0) or the cap (kappa = 1), from narrow brackets."""
    asm = Assembler(fem.build_mesh(2, rings), metric.MetricModel(kappa),
                    problem.ProblemSpec(-36.0))
    found = conjugate.find_conjugate_radii(
        asm, conjugate.scan(asm, [0.398, 0.402, 0.637, 0.641]))
    assert [cj.multiplicity for cj in found] == [1, 2]
    return [(cj, conjugate.verify_crossing(asm, cj)) for cj in found]


class TestVerifyIndex:
    def test_oscillator_identity(self, osc_1d):
        asm = osc_1d
        sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 120))
        conjs = conjugate.find_conjugate_radii(asm, sc)
        rep = conjugate.verify_index(sc, conjs)
        assert rep.morse_index_at_1 == 4
        assert rep.sum_m == 4
        assert rep.identity_holds
        assert rep.morse_index_small_r == 0
        assert rep.corollary_bound == 4

    def test_positive_form_trivial_report(self):
        mesh = fem.build_mesh(1, 100)
        met = metric.MetricModel()
        spec = problem.ProblemSpec(0.0)
        sc = conjugate.scan(Assembler(mesh, met, spec), [1e-3, 1.0])
        rep = conjugate.verify_index(sc, [])
        assert rep.morse_index_at_1 == 0
        assert rep.sum_m == 0
        assert rep.identity_holds
        assert rep.corollary_bound == 0

    def test_degenerate_endpoint_aborts(self):
        # fifth crossing engineered at r = 1; high resolution keeps the
        # discrete eigenvalue bias below the kernel threshold
        mesh = fem.build_mesh(1, 24000)
        met = metric.MetricModel()
        spec = problem.ProblemSpec(-(2.5 * np.pi) ** 2)
        asm = Assembler(mesh, met, spec)
        with pytest.raises(conjugate.DegenerateRadiusOneError):
            conjugate.endpoint_kernel_gap(asm)

    def test_reads_counts_off_the_scan(self):
        # mu and n_neg(r_min) are the scan's last and first counts; no
        # assembly, so these counts need not come from any form.
        basis = np.zeros((1, 1))
        conjs = [conjugate.ConjugateRadius(r, m, basis, (r, r))
                 for r, m in ((0.7, 2), (0.3, 1))]
        sc = conjugate.ScanResult(r=np.array([0.01, 0.5, 1.0]),
                                  n_neg=np.array([1, 1, 4]))
        rep = conjugate.verify_index(sc, conjs)
        assert rep.morse_index_at_1 == 4
        assert rep.morse_index_small_r == 1
        assert rep.conjugate_list == [(0.3, 1), (0.7, 2)]
        assert rep.sum_m == 3
        assert not rep.identity_holds
        assert rep.corollary_bound == 2
        short = conjugate.ScanResult(r=np.array([0.01, 0.5]), n_neg=np.array([0, 1]))
        with pytest.raises(ValueError, match="ends at r = 1"):
            conjugate.verify_index(short, conjs)

    def test_endpoint_gap_clean_case(self, osc_1d):
        assert conjugate.endpoint_kernel_gap(osc_1d) is None

    @pytest.mark.parametrize("dim, resolution, f, inside", [
        (1, 60, -5.0, 1),    # nearest eigenvalue 0.494
        (2, 6, -30.0, 2),    # nearest eigenvalue -0.0679, a double one
    ], ids=["1d", "disc"])
    def test_endpoint_count_matches_dense_eigenvalues(self, monkeypatch,
                                                      dim, resolution, f, inside):
        # The two counts give the number of pencil eigenvalues of
        # (H(1), S) in [-tau, tau): none just below the |lambda| nearest
        # zero, every eigenvalue at that distance just above it.
        asm = Assembler(fem.build_mesh(dim, resolution), metric.MetricModel(),
                        problem.ProblemSpec(f))
        H, S = asm.h(1.0), asm.gram()
        lams, _ = smallest_eigenpairs(H, S, H.shape[0])
        gap = np.min(np.abs(lams))
        assert np.sum(np.abs(lams) < 1.001 * gap) == inside
        monkeypatch.setattr(conjugate, "KERNEL_THRESHOLD_AT_ONE", 0.999 * gap)
        assert conjugate.endpoint_kernel_gap(asm) is None
        monkeypatch.setattr(conjugate, "KERNEL_THRESHOLD_AT_ONE", 1.001 * gap)
        with pytest.raises(conjugate.DegenerateRadiusOneError,
                           match=rf"^{inside} eigenvalue"):
            conjugate.endpoint_kernel_gap(asm)


def test_disc_full_pipeline_small():
    """End-to-end on a coarse disc: all four crossings, identity, bound."""
    mesh = fem.build_mesh(2, 24)
    met = metric.MetricModel()
    spec = problem.ProblemSpec(-36.0)
    asm = Assembler(mesh, met, spec)
    sc = conjugate.scan(asm, np.linspace(1e-3, 1.0, 150))
    conjs = conjugate.find_conjugate_radii(asm, sc)
    exact = sorted(
        [(jn_zeros(0, 2)[0] / 6.0, 1), (jn_zeros(1, 1)[0] / 6.0, 2),
         (jn_zeros(2, 1)[0] / 6.0, 2), (jn_zeros(0, 2)[1] / 6.0, 1)]
    )
    assert len(conjs) == 4
    for cj, (r_exact, m_exact) in zip(conjs, exact):
        assert cj.multiplicity == m_exact
        assert cj.r_star == pytest.approx(r_exact, rel=2e-2)
    rep = conjugate.verify_index(sc, conjs)
    assert rep.morse_index_at_1 == 6
    assert rep.identity_holds
    assert rep.corollary_bound == 3


PIPELINE_STAGES = [
    (conjugate, "scan"),
    (conjugate, "find_conjugate_radii"),
    (conjugate, "crossing_form_fd"),
    (conjugate, "crossing_form_boundary"),
    (conjugate, "verify_crossing"),
    (conjugate, "endpoint_kernel_gap"),
    (branch, "newton_solve"),
    (branch, "trace_branch"),
]


@pytest.mark.parametrize("module, name", PIPELINE_STAGES,
                         ids=[name for _, name in PIPELINE_STAGES])
def test_stage_takes_the_assembler_first(module, name):
    params = list(inspect.signature(getattr(module, name)).parameters.values())
    assert params[0].name == "asm"
    assert params[0].annotation in (Assembler, "Assembler")
    assert not {"mesh", "metric", "spec", "assembler"} & {p.name for p in params}


def test_public_names_resolve():
    for module in (conjugate, branch):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert {"find_conjugate_radii", "endpoint_kernel_gap"} <= set(conjugate.__all__)
