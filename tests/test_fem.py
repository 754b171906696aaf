import sys
import threading

import numpy as np
import pytest

from smalescan import fem, metric, problem

from reference import energy, reference_assembly


def hat_stiffness(n_elem, length=2.0):
    h = length / n_elem
    n = n_elem - 1
    return (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
            + np.diag(np.full(n - 1, -1.0), -1)) / h


def flat_assembler(mesh):
    """Euclidean metric, f = 0: h(r) is the Gram matrix for every r."""
    return fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(0.0))


def hat_mass(n_elem, length=2.0):
    h = length / n_elem
    n = n_elem - 1
    return h / 6.0 * (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, 1.0), 1)
                      + np.diag(np.full(n - 1, 1.0), -1))


class TestMesh:
    def test_1d_nodes(self):
        mesh = fem.build_mesh(1, 4)
        assert np.allclose(mesh.nodes.ravel(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert mesh.n_interior == 3
        assert mesh.boundary_nodes.sum() == 2

    def test_smallest_polar_mesh(self):
        mesh = fem.build_mesh(2, 1)
        assert mesh.n_nodes == 7
        assert len(mesh.elements) == 6
        assert mesh.n_interior == 1

    @pytest.mark.parametrize("R", [2, 4, 7, 12])
    def test_node_count_formula(self, R):
        mesh = fem.build_mesh(2, R)
        assert mesh.n_nodes == 1 + 3 * R * (R + 1)
        assert len(mesh.elements) == 6 * R * R
        assert mesh.boundary_nodes.sum() == 6 * R

    def test_nodes_inside_ball_and_boundary_on_circle(self):
        mesh = fem.build_mesh(2, 9)
        norms = np.linalg.norm(mesh.nodes, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.all(np.abs(norms[mesh.boundary_nodes] - 1.0) <= 1e-12)

    # The polar-ring construction lists every triangle counterclockwise;
    # nothing flips one afterwards.
    @pytest.mark.parametrize("R", [1, 2, 3, 6, 40])
    def test_positive_orientation(self, R):
        mesh = fem.build_mesh(2, R)
        v = mesh.nodes[mesh.elements]
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.all(areas > 1e-14)

    def test_boundary_weights(self):
        # Lumped P1 boundary measure: 1 at both 1D end points; in 2D half of
        # each of the two adjacent chords, both of length 2 sin(pi/(6R)),
        # summing to the polygon's perimeter.  0 off the boundary.
        for mesh in (fem.build_mesh(1, 5), *(fem.build_mesh(2, R) for R in (1, 2, 7))):
            bw = mesh.boundary_weights
            assert bw.shape == (mesh.n_nodes,)
            assert np.all(bw[~mesh.boundary_nodes] == 0.0)
            if mesh.dim == 1:
                assert np.array_equal(bw[mesh.boundary_nodes], [1.0, 1.0])
                continue
            R = int(mesh.boundary_nodes.sum()) // 6
            assert np.allclose(bw[mesh.boundary_nodes], 2.0 * np.sin(np.pi / (6 * R)),
                               rtol=0.0, atol=1e-15)
            ring = mesh.nodes[mesh.boundary_nodes]
            perimeter = np.linalg.norm(np.roll(ring, 1, axis=0) - ring, axis=1).sum()
            assert bw.sum() == pytest.approx(perimeter, rel=1e-14)

    def test_determinism(self):
        a = fem.build_mesh(2, 6)
        b = fem.build_mesh(2, 6)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.elements, b.elements)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            fem.build_mesh(1, 1)
        with pytest.raises(ValueError):
            fem.build_mesh(2, 0)
        with pytest.raises(ValueError):
            fem.build_mesh(3, 5)


class TestAssembleH:
    def test_1d_flat_no_potential_is_stiffness(self):
        asm = flat_assembler(fem.build_mesh(1, 10))
        for r in (0.0, 0.3, 1.0):
            assert np.allclose(asm.h(r).toarray(), hat_stiffness(10), atol=1e-14)

    def test_r_zero_is_pure_stiffness_any_metric(self):
        mesh = fem.build_mesh(2, 4)
        met = metric.MetricModel(1.0)
        spec = problem.ProblemSpec(-17.0)
        H = fem.Assembler(mesh, met, spec).h(0.0)
        gram = flat_assembler(mesh).gram()
        assert np.allclose(H.toarray(), gram.toarray(), atol=1e-14)

    def test_1d_constant_potential_closed_form(self):
        mesh = fem.build_mesh(1, 8)
        c, r = 5.0, 0.6
        H = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-c)).h(r)
        expect = hat_stiffness(8) - c * r * r * hat_mass(8)
        assert np.allclose(H.toarray(), expect, atol=1e-13)

    def test_symmetry(self):
        # Every form is exactly symmetric and returned in CSC, the format
        # spectral factors without a transposition: each element matrix is
        # stored once per unordered pair and the pattern's mirror entries
        # read the same value.  That holds for both parts of the complex
        # step, and J(r, 0) is H(r) bit for bit; in 1D and 2D, on flat and
        # curved metrics, with a constant f and one that varies.
        rng = np.random.default_rng(4)
        for dim, res in ((1, 30), (2, 6)):
            mesh = fem.build_mesh(dim, res)
            u = rng.standard_normal(mesh.n_interior)
            for kappa in (0.0, 1.0):
                for f in ("-9", "-9 + 4*x1 - 2*r2"):
                    spec = problem.ProblemSpec(problem.parse_field(f, dim), 1.5)
                    asm = fem.Assembler(mesh, metric.MetricModel(kappa), spec)
                    step = asm.h(0.7 + 0.7e-20j)
                    assert np.abs(step.imag).max() > 0.0
                    for H in (asm.h(0.7), asm.gram(), asm.jacobian(0.7, u),
                              step.real, step.imag):
                        assert H.format == "csc"
                        assert (H != H.T).nnz == 0
                        assert np.max(np.abs((H - H.T).toarray())) == 0.0
                    J = asm.jacobian(0.7, np.zeros(mesh.n_interior))
                    H = asm.h(0.7)
                    assert np.array_equal(J.indptr, H.indptr)
                    assert np.array_equal(J.indices, H.indices)
                    assert np.array_equal(J.data, H.data)

    def test_curved_h_is_rotation_invariant(self):
        # Rotation by 60 degrees maps the polar-ring mesh onto itself
        # (node j of ring i goes to node j + i) and the curved metric's
        # radial projectors onto the rotated ones, so H(r) is invariant.
        R = 6
        mesh = fem.build_mesh(2, R)
        perm = [0]
        for i in range(1, R):
            start = 1 + 3 * i * (i - 1)
            perm.extend(start + (j + i) % (6 * i) for j in range(6 * i))
        for kappa in (1.0, -2.0):
            H = fem.Assembler(mesh, metric.MetricModel(kappa),
                              problem.ProblemSpec(-9.0)).h(0.8).toarray()
            assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) <= 1e-13 * np.max(np.abs(H))

    def test_rejects_bad_r(self):
        # One check guards every form, negative radii included.
        mesh = fem.build_mesh(1, 4)
        asm = fem.Assembler(mesh, metric.MetricModel(1.0), problem.ProblemSpec(0.0))
        u = np.zeros(mesh.n_interior)
        forms = (asm.h,
                 lambda r: asm.jacobian(r, u),
                 lambda r: asm.residual(r, u))
        for form in forms:
            for r in (-0.5, -1e-300, 1.5, float("nan")):
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    form(r)


@pytest.mark.parametrize("dim,res", [(1, 30), (2, 5)], ids=["1d-30", "2d-5"])
@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
def test_boundary_flux_balances_interior_rows(dim, res, kappa):
    # With f = 0 every element matrix has zero column sums (1^T G_t = 0,
    # the hat functions sum to 1), so the boundary flux of any u is minus
    # the sum of the interior rows of H(r) u.
    mesh = fem.build_mesh(dim, res)
    asm = fem.Assembler(mesh, metric.MetricModel(kappa), problem.ProblemSpec(0.0))
    U = np.random.default_rng(13).standard_normal((mesh.n_interior, 2))
    for r in (0.3, 1.0):
        sigma = asm.boundary_flux(r, U)
        assert sigma.shape == (int(mesh.boundary_nodes.sum()), 2)
        HU = asm.h(r) @ U
        scale = np.abs(HU).sum(axis=0)
        assert np.all(np.abs(sigma.sum(axis=0) + HU.sum(axis=0)) <= 1e-13 * scale)


class TestGram:
    def test_1d_four_elements(self):
        # h = 0.5: tridiagonal with 4 on the diagonal, -2 off.
        S = flat_assembler(fem.build_mesh(1, 4)).gram().toarray()
        assert np.allclose(S, [[4, -2, 0], [-2, 4, -2], [0, -2, 4]], atol=1e-14)

    def test_equals_flat_h_without_potential(self):
        # w = a = 1 exactly, so the stiffness is the Gram kernel bit for bit.
        for dim, res in ((1, 40), (2, 5)):
            asm = flat_assembler(fem.build_mesh(dim, res))
            S = asm.gram()
            for r in (0.0, 0.37, 0.9, 1.0):
                H = asm.h(r)
                assert np.array_equal(H.indptr, S.indptr)
                assert np.array_equal(H.indices, S.indices)
                assert np.array_equal(H.data, S.data)

    @pytest.mark.parametrize("dim,res", [(1, 50), (2, 6)])
    def test_positive_definite(self, dim, res):
        S = flat_assembler(fem.build_mesh(dim, res)).gram().toarray()
        assert np.linalg.eigvalsh(S).min() > 0.0


class TestResidualJacobian:
    def setup_method(self):
        self.mesh = fem.build_mesh(1, 40)
        self.met = metric.MetricModel()
        self.cubic = problem.ProblemSpec(-10.0, 1.0)
        self.asm = fem.Assembler(self.mesh, self.met, self.cubic)

    def test_residual_zero_at_origin(self):
        for r in (0.0, 0.4, 1.0):
            res = self.asm.residual(r, np.zeros(self.mesh.n_interior))
            assert np.array_equal(res, np.zeros(self.mesh.n_interior))

    def test_linear_residual_is_H_u(self):
        spec = problem.ProblemSpec(-4.0)
        asm = fem.Assembler(self.mesh, self.met, spec)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(self.mesh.n_interior)
        r = 0.8
        assert np.allclose(asm.residual(r, u), asm.h(r) @ u, atol=1e-12)

    # Each metric keeps its formula at every radius: on a flat one H(r) is
    # the kept stiffness data plus r^2 times the f-mass data (kept when f
    # is constant) and J(r, u) one mass scatter; a curved one scatters
    # K + r^2 M per form.
    @pytest.mark.parametrize("kappa,f", [(0.0, "-10"), (0.0, "3*r2 - 20"), (1.0, "-10")],
                             ids=["flat-constant", "flat-x", "curved"])
    def test_jacobian_at_zero_equals_h(self, kappa, f):
        spec = problem.ProblemSpec(problem.parse_field(f, 1), 1.0)
        asm = fem.Assembler(self.mesh, metric.MetricModel(kappa), spec)
        zero = np.zeros(self.mesh.n_interior)
        for r in (0.73, 0.41):
            J = asm.jacobian(r, zero)
            H = asm.h(r)
            assert np.max(np.abs((J - H).toarray())) == 0.0
            assert np.array_equal(J.data, H.data)

    def test_linear_jacobian_is_h_for_all_u(self):
        spec = problem.ProblemSpec(-4.0)
        asm = fem.Assembler(self.mesh, self.met, spec)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(self.mesh.n_interior)
        assert np.allclose(asm.jacobian(0.5, u).toarray(), asm.h(0.5).toarray(),
                           atol=1e-14)

    def test_jacobian_matches_fd_of_residual(self):
        rng = np.random.default_rng(7)
        u = 0.1 * rng.standard_normal(self.mesh.n_interior)
        r = 0.6
        J = self.asm.jacobian(r, u).toarray()
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(self.mesh.n_interior)
            fd = (self.asm.residual(r, u + h * d) - self.asm.residual(r, u - h * d)) / (2 * h)
            assert np.linalg.norm(fd - J @ d) / np.linalg.norm(J @ d) <= 1e-6

    def test_energy_gradient_is_residual(self):
        rng = np.random.default_rng(8)
        u = 0.2 * rng.standard_normal(self.mesh.n_interior)
        r = 0.8
        res = self.asm.residual(r, u)
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(self.mesh.n_interior)
            fd = (energy(self.asm, r, u + h * d) - energy(self.asm, r, u - h * d)) / (2 * h)
            assert fd == pytest.approx(float(res @ d), rel=1e-6)

    def test_energy_gradient_2d_curved(self):
        mesh = fem.build_mesh(2, 4)
        asm = fem.Assembler(mesh, metric.MetricModel(1.0),
                            problem.ProblemSpec(-6.0, 2.0))
        rng = np.random.default_rng(9)
        u = 0.2 * rng.standard_normal(mesh.n_interior)
        r = 0.7
        res = asm.residual(r, u)
        h = 1e-6
        d = rng.standard_normal(mesh.n_interior)
        fd = (energy(asm, r, u + h * d) - energy(asm, r, u - h * d)) / (2 * h)
        assert fd == pytest.approx(float(res @ d), rel=1e-6)


@pytest.mark.parametrize("dim,res,kappa", [
    (1, 40, 0.0), (2, 6, 0.0), (2, 6, 1.0), (2, 6, -1.0),
], ids=["1d-40", "disc-6", "cap-6", "hyperbolic-6"])
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
def test_assembly_matches_reference(dim, res, kappa, r):
    mesh = fem.build_mesh(dim, res)
    met = metric.MetricModel(kappa)
    asm = fem.Assembler(mesh, met, problem.ProblemSpec(-20.0, 1.5))
    u = 0.5 * np.random.default_rng(11).standard_normal(mesh.n_interior)
    H, J, F, S, _ = reference_assembly(asm, r, u)
    for new, ref in ((asm.h(r), H), (asm.jacobian(r, u), J), (asm.gram(), S)):
        assert np.array_equal(new.indptr, ref.indptr)
        assert np.array_equal(new.indices, ref.indices)
        assert abs(new - ref).max() <= 1e-13 * abs(ref).max()
        assert abs(new - new.T).max() == 0.0
    res_new = asm.residual(r, u)
    assert np.max(np.abs(res_new - F)) <= 1e-13 * np.max(np.abs(F))


@pytest.mark.parametrize("dim,res", [(1, 40), (2, 6)], ids=["1d-40", "2d-6"])
@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
def test_profiles_read_from_distinct_radii(dim, res, kappa, r, monkeypatch):
    # The profiles are evaluated once per distinct |x| and gathered; every
    # quadrature point must read what evaluating at its own r|x| gives.
    mesh = fem.build_mesh(dim, res)
    met = metric.MetricModel(kappa)
    asm = fem.Assembler(mesh, met, problem.ProblemSpec(0.0))
    pts = np.concatenate([asm.grad_pts, asm.mass_pts], axis=1)
    radius = np.linalg.norm(pts, axis=2)
    radius_of = np.hstack([asm._grad_radius.T, asm._mass_radius])
    assert asm._radii.size < radius.size
    assert np.array_equal(asm._radii[radius_of], radius)
    seen = []
    coefficients = metric.coefficients

    def recorded(model, t, n):
        seen.append(np.array(t))
        return coefficients(model, t, n)

    monkeypatch.setattr(metric, "coefficients", recorded)
    asm.h(r)
    assert len(seen) == 1 and np.array_equal(seen[0], r * asm._radii)
    w, a = coefficients(met, seen[0], dim)
    w_ref, a_ref = coefficients(met, r * radius, dim)
    assert np.array_equal(w[radius_of], w_ref)
    assert np.array_equal(a[radius_of], a_ref)


@pytest.mark.parametrize("dim,res,kappa,f", [
    (1, 40, 0.0, "3*r2 - 20"), (2, 6, 1.0, "3*r2 - 20"), (2, 6, 0.0, "-36"),
    (1, 40, 1.0, "-36"),
], ids=["1d-40", "cap-6", "disc-6-flat", "1d-40-curved"])
def test_radius_slot_matches_fresh_assembler(dim, res, kappa, f, monkeypatch):
    # Interleaved radii reuse and replace the slot of the last radius;
    # every form must equal a fresh assembler's bit for bit.  A flat
    # metric repeats its profiles at every r, so the slot keeps its K,
    # and its f values too when f is constant; a curved one rebuilds,
    # also in 1D, where w = 1 at every r and only a changes.  A complex
    # radius (the complex step of the crossing form) leaves the slot as
    # it was: real h calls after it still match a fresh assembler.
    mesh = fem.build_mesh(dim, res)
    met = metric.MetricModel(kappa)
    spec = problem.ProblemSpec(problem.parse_field(f, dim), 1.5)
    asm = fem.Assembler(mesh, met, spec)
    u = 0.5 * np.random.default_rng(12).standard_normal(mesh.n_interior)
    zero = np.zeros(mesh.n_interior)

    def fresh():
        return fem.Assembler(mesh, met, spec)

    for r in (0.37, 0.81, 0.37):
        for _ in range(2):  # a new radius, then a repeat of it
            for got, want in ((asm.h(r), fresh().h(r)),
                              (asm.jacobian(r, u), fresh().jacobian(r, u))):
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)
            assert np.array_equal(asm.residual(r, u), fresh().residual(r, u))
        assert np.max(np.abs((asm.jacobian(r, zero) - asm.h(r)).toarray())) == 0.0
        slot = asm._at_r
        assert np.iscomplexobj(asm.h(r + 1e-20j * r).data)
        assert asm._at_r is slot
        for r_next in (r, 0.5):
            got, want = asm.h(r_next), fresh().h(r_next)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
    K1, _, f1 = asm._r_data(0.37)
    K2, _, f2 = asm._r_data(0.81)
    assert (K1 is K2) == (kappa == 0.0)
    assert (f1 is f2) == (kappa == 0.0 and spec.f_constant is not None)
    # At a new radius a flat metric with constant f scatters nothing: H(r)
    # is one axpy of the kept data vectors.  Otherwise h is one scatter.
    want = fresh().h(0.6)
    bincount = np.bincount
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    got = asm.h(0.6)
    monkeypatch.undo()
    assert len(calls) == (0 if kappa == 0.0 and spec.f_constant is not None else 1)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_concurrent_h_at_interleaved_radii():
    # Threads calling h at different radii share the slot; a torn read
    # (r of one radius, data of another) would change some matrix.  The
    # curved metric rebuilds the slot at every new radius; the flat one
    # keeps its K (and, with a constant f, its f values) across radii.
    # The complex radius reads the slot and leaves it as it was.
    mesh = fem.build_mesh(2, 6)
    for kappa, f in ((1.0, "3*r2 - 20"), (0.0, "3*r2 - 20"), (0.0, "-36")):
        spec = problem.ProblemSpec(problem.parse_field(f, 2), 1.5)
        asm = fem.Assembler(mesh, metric.MetricModel(kappa), spec)
        radii = (0.2, 0.5, 0.8, 0.5 + 0.5e-20j)
        want = {r: fem.Assembler(mesh, asm.metric, spec).h(r).data for r in radii}
        bad = []

        def worker(k):
            for i in range(60):
                r = radii[(i + k) % len(radii)]
                if not np.array_equal(asm.h(r).data, want[r]):
                    bad.append(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == [], (kappa, f)


def test_1d_eigenvalue_convergence_is_second_order():
    # smallest Dirichlet eigenvalue of -u'' on (-1,1) is (pi/2)^2
    import scipy.linalg as la
    exact = (np.pi / 2) ** 2
    errs = []
    for res in (40, 80, 160):
        mesh = fem.build_mesh(1, res)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(1.0))
        K = asm.gram().toarray()
        M = asm.h(1.0).toarray() - K
        lam = la.eigh(K, M, subset_by_index=[0, 0])[0][0]
        errs.append(abs(lam - exact))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 1.8 <= rate1 <= 2.2
    assert 1.8 <= rate2 <= 2.2
