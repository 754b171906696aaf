import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from smalescan import branch, conjugate, fem, metric, problem
from smalescan.fem import Assembler

C_OSC = (2.3 * np.pi) ** 2


@pytest.fixture(scope="module")
def osc_cubic():
    mesh = fem.build_mesh(1, 800)
    met = metric.euclidean(1)
    spec = problem.cubic_problem(-C_OSC, 1.0)
    asm = Assembler(mesh, met, spec)
    lin = problem.linear_problem(-C_OSC)
    asm_lin = Assembler(mesh, met, lin)
    cj = conjugate.locate(asm_lin, 0.20, 0.23)[0]
    return asm, cj


def shooting_solution(r, c=C_OSC):
    """Symmetric positive solution of -U'' - cU + U^3 = 0 on (-r, r).

    Shooting from the center: U(0) = a, U'(0) = 0; the amplitude a is
    tuned so the first zero lands exactly at r.  Independent of the
    finite element machinery, this is the reference for the pulled-back
    branch solutions (u(x) = U(r x)).
    """
    def endpoint(a):
        sol = solve_ivp(
            lambda t, y: [y[1], -c * y[0] + y[0] ** 3],
            (0.0, r), [a, 0.0], rtol=1e-11, atol=1e-13, dense_output=True,
        )
        return sol.sol(r)[0], sol

    a_star = brentq(lambda a: endpoint(a)[0], 1e-6, 50.0, xtol=1e-12)
    _, sol = endpoint(a_star)
    ts = np.linspace(0.0, r, 4001)
    U, dU = sol.sol(ts)
    h1 = np.sqrt(2.0 * r * np.trapezoid(dU ** 2, ts))
    return a_star, h1


class TestNewton:
    def test_zero_start_is_exact_root(self, osc_cubic):
        asm = osc_cubic[0]
        s = branch.newton_solve(asm, 0.5, np.zeros(asm.mesh.n_interior))
        assert s.converged
        assert s.newton_iters == 0
        assert s.residual_norm == 0.0
        assert s.h1_norm == 0.0

    def test_linear_problem_only_trivial_solution(self):
        mesh = fem.build_mesh(1, 200)
        met = metric.euclidean(1)
        spec = problem.linear_problem(-10.0)
        asm = Assembler(mesh, met, spec)
        rng = np.random.default_rng(0)
        u0 = 1e-3 * rng.standard_normal(mesh.n_interior)
        s = branch.newton_solve(asm, 0.5, u0)
        assert s.converged
        assert s.h1_norm <= 1e-10

    def test_converged_residual_bound(self, osc_cubic):
        asm, cj = osc_cubic
        phi = cj.kernel_basis[:, 0]
        s = branch.newton_solve(asm, 0.24, 5.5 * phi)
        assert s.converged
        h_scale = abs(asm.h(0.24).H).max()
        assert s.residual_norm <= 1e-10 * (1.0 + h_scale)

    def test_nontrivial_solution_matches_shooting_oracle(self, osc_cubic):
        asm, cj = osc_cubic
        phi = cj.kernel_basis[:, 0]
        # seed at the pitchfork amplitude; 0.3*phi sits inside the
        # trivial basin for this problem and must collapse to zero
        s = branch.newton_solve(asm, 0.24, 5.5 * phi)
        assert s.converged and s.h1_norm > 1e-3
        a_star, h1_star = shooting_solution(0.24)
        assert np.abs(s.u).max() == pytest.approx(a_star, rel=2e-4)
        assert s.h1_norm == pytest.approx(h1_star, rel=2e-4)

    def test_small_seed_falls_into_trivial_basin(self, osc_cubic):
        asm, cj = osc_cubic
        phi = cj.kernel_basis[:, 0]
        s = branch.newton_solve(asm, 0.24, 0.3 * phi)
        assert s.converged
        assert s.h1_norm <= 1e-8


class TestTraceBranch:
    def test_supercritical_branch_confirmed(self, osc_cubic):
        asm, cj = osc_cubic
        tr = branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], +1, 100, 1e-3)
        assert tr.confirmed
        assert len(tr.samples) == 100
        assert all(s.h1_norm > 0 for s in tr.samples)
        assert abs(tr.intercept - cj.r_star) <= 1e-3
        norms = [s.h1_norm for s in tr.samples]
        assert np.all(np.diff(norms) > 0)

    def test_trace_matches_oracle_over_example_window(self, osc_cubic):
        # Oracle-frozen slope over r - r* in [1e-3, 1e-1]: the continuum
        # value is 0.4295 (finite-amplitude bending), which the trace
        # must reproduce; the asymptotic decade shows the pitchfork 1/2.
        asm, cj = osc_cubic
        tr = branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], +1, 100, 1e-3)
        slope_full = branch.amplitude_exponent(tr, (1e-3, 1e-1))
        deltas = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        h1_oracle = np.array([shooting_solution(cj.r_star + d)[1] for d in deltas])
        slope_oracle = np.polyfit(np.log(deltas), np.log(h1_oracle), 1)[0]
        h1_trace = np.interp(cj.r_star + deltas, [s.r for s in tr.samples],
                             [s.h1_norm for s in tr.samples])
        assert np.allclose(h1_trace, h1_oracle, rtol=1e-3)
        slope_trace = np.polyfit(np.log(deltas), np.log(h1_trace), 1)[0]
        assert slope_trace == pytest.approx(slope_oracle, abs=5e-3)
        assert 0.40 <= slope_full <= 0.47  # bent by finite amplitude
        slope_asym = branch.amplitude_exponent(tr, (1e-3, 1e-2))
        assert 0.45 <= slope_asym <= 0.55

    def test_subcritical_side_reports_one_sided_failure(self, osc_cubic):
        asm, cj = osc_cubic
        tr = branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], -1, 20, 1e-3)
        assert not tr.confirmed
        assert tr.failure is not None

    def test_linear_problem_has_vertical_bifurcation(self):
        mesh = fem.build_mesh(1, 400)
        met = metric.euclidean(1)
        lin = problem.linear_problem(-C_OSC)
        asm = Assembler(mesh, met, lin)
        cj = conjugate.locate(asm, 0.20, 0.23)[0]
        tr = branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], +1, 10, 1e-3)
        assert not tr.confirmed  # off the crossing the secant collapses to 0

    def test_rejects_bad_arguments(self, osc_cubic):
        asm, cj = osc_cubic
        with pytest.raises(ValueError):
            branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], 0, 10, 1e-3)
        with pytest.raises(ValueError):
            branch.trace_branch(asm, cj.r_star, cj.kernel_basis[:, 0], 1, 1, 1e-3)


class TestMultistart:
    def test_no_small_solutions_off_crossing(self, osc_cubic):
        asm = osc_cubic[0]
        for r in (0.5, 0.3):
            clean, samples = branch.multistart_no_small_solutions(asm, r)
            assert clean
            assert len(samples) == 20
            for s in samples:
                if s.converged:
                    assert s.h1_norm <= 1e-8 or s.h1_norm > 1e-2

    def test_deterministic(self, osc_cubic):
        asm = osc_cubic[0]
        _, a = branch.multistart_no_small_solutions(asm, 0.5, n_seeds=5)
        _, b = branch.multistart_no_small_solutions(asm, 0.5, n_seeds=5)
        assert all(x.h1_norm == y.h1_norm for x, y in zip(a, b))
