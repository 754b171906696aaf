import numpy as np
import pytest
import scipy.sparse as sp

from smalescan import fem, metric, problem, spectral


def random_symmetric_with_inertia(rng, n_neg, n_zero, n_pos, seed_scale=1.0):
    n = n_neg + n_zero + n_pos
    d = np.concatenate([
        -rng.uniform(0.5, 2.0, n_neg),
        np.zeros(n_zero),
        rng.uniform(0.5, 2.0, n_pos),
    ])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return seed_scale * (Q * d) @ Q.T


def flat_assembler(mesh):
    return fem.Assembler(mesh, metric.euclidean(mesh.dim), problem.linear_problem(0.0))


class TestInertia:
    def test_diagonal_example(self):
        I = spectral.inertia(np.diag([-2.0, 0.0, 3.0]), 1e-8)
        assert (I.n_neg, I.n_zero, I.n_pos) == (1, 1, 1)

    def test_spd_stiffness(self):
        S = flat_assembler(fem.build_mesh(1, 50)).gram()
        I = spectral.inertia(S)
        assert (I.n_neg, I.n_zero, I.n_pos) == (0, 0, 49)

    def test_1d_oscillator_morse_index(self):
        # eigenvalues (k pi / 2)^2 - (2.3 pi)^2 are negative iff k <= 4
        mesh = fem.build_mesh(1, 2000)
        form = fem.Assembler(mesh, metric.euclidean(1),
                             problem.linear_problem(-(2.3 * np.pi) ** 2)).h(1.0)
        assert spectral.inertia(form.H).n_neg == 4
        assert spectral.inertia(form.H.toarray()).n_neg == 4

    def test_sums_to_dimension(self):
        rng = np.random.default_rng(0)
        A = random_symmetric_with_inertia(rng, 3, 2, 5)
        I = spectral.inertia(A, 1e-8)
        assert (I.n_neg, I.n_zero, I.n_pos) == (3, 2, 5)
        assert I.dim == 10

    def test_congruence_invariance(self):
        rng = np.random.default_rng(1)
        A = random_symmetric_with_inertia(rng, 4, 0, 6)
        for _ in range(10):
            C = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
            I = spectral.inertia(C @ A @ C.T)
            assert (I.n_neg, I.n_zero, I.n_pos) == (4, 0, 6)

    def test_matches_dense_eigendecomposition(self):
        # Sylvester consistency on moderate random matrices
        rng = np.random.default_rng(2)
        for n in (40, 200, 500):
            A = rng.standard_normal((n, n))
            A = A + A.T
            expect = int((np.linalg.eigvalsh(A) < 0).sum())
            assert spectral.inertia(A).n_neg == expect

    def test_sparse_matches_dense_across_radii(self):
        # sparse LDL^T against dense Bunch-Kaufman on every shipped geometry
        scenarios = [
            (fem.build_mesh(1, 300), metric.euclidean(1), -(2.3 * np.pi) ** 2),
            (fem.build_mesh(2, 7), metric.euclidean(2), -36.0),
            (fem.build_mesh(2, 7), metric.constant_curvature(2, 1.0), -36.0),
        ]
        for mesh, met, f in scenarios:
            asm = fem.Assembler(mesh, met, problem.linear_problem(f))
            for r in np.linspace(1e-3, 1.0, 41):
                H = asm.h(r).H
                for strict in (True, False):
                    a = spectral.inertia(H, strict=strict)
                    b = spectral.inertia(H.toarray(), strict=strict)
                    assert (a.n_neg, a.n_zero, a.n_pos) == (b.n_neg, b.n_zero, b.n_pos)

    def test_strict_mode_has_no_zero_band(self):
        A = np.diag([1e-14, -1e-14, 1.0])
        I = spectral.inertia(A, 1e-9, strict=True)
        assert I.n_zero == 0
        assert I.n_neg == 1
        I2 = spectral.inertia(A, 1e-9)
        assert I2.n_zero == 2

    def test_rejects_nonsymmetric(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for H in (A, sp.csr_matrix(A)):
            with pytest.raises(ValueError):
                spectral.inertia(H)

    def test_sparse_zero_diagonal_raises(self):
        # no diagonal pivot order exists: SuperLU pivots off the diagonal
        # and the count must be refused instead of misclassified
        H = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(spectral.FactorizationError):
            spectral.inertia(H)

    def test_sparse_pivot_growth_raises(self):
        H = sp.csr_matrix(np.array([[1e-14, 1.0], [1.0, 1e-14]]))
        with pytest.raises(spectral.FactorizationError):
            spectral.inertia(H)


class TestSmallestEigenpairs:
    def test_identity_pencil(self):
        S = flat_assembler(fem.build_mesh(1, 30)).gram()
        pairs = spectral.smallest_eigenpairs(S, S, 3)
        assert np.allclose(pairs.values, 1.0, atol=1e-12)

    def test_1d_pencil_sign_pattern(self):
        # sign of lambda_k(r) matches (k pi / 2)^2 - c r^2
        c = 30.0
        mesh = fem.build_mesh(1, 400)
        asm = fem.Assembler(mesh, metric.euclidean(1), problem.linear_problem(-c))
        for r in (0.3, 0.6, 0.95):
            form = asm.h(r)
            pairs = spectral.smallest_eigenpairs(form.H, form.S, 5)
            expect = np.sign([(k * np.pi / 2) ** 2 - c * r * r for k in range(1, 6)])
            assert np.array_equal(np.sign(pairs.values), expect)

    def test_first_eigenvalue_decreasing_in_r(self):
        mesh = fem.build_mesh(1, 300)
        asm = fem.Assembler(mesh, metric.euclidean(1), problem.linear_problem(-12.0))
        vals = []
        for r in np.linspace(0.05, 1.0, 15):
            form = asm.h(r)
            vals.append(spectral.smallest_eigenpairs(form.H, form.S, 1).values[0])
        assert np.all(np.diff(vals) < 0.0)

    def test_s_orthonormal_and_residual(self):
        mesh = fem.build_mesh(2, 6)
        asm = fem.Assembler(mesh, metric.euclidean(2), problem.linear_problem(-20.0))
        form = asm.h(0.8)
        pairs = spectral.smallest_eigenpairs(form.H, form.S, 4)
        G = pairs.vectors.T @ (form.S @ pairs.vectors)
        assert np.allclose(G, np.eye(4), atol=1e-10)
        for j, lam in enumerate(pairs.values):
            v = pairs.vectors[:, j]
            num = np.linalg.norm(form.H @ v - lam * (form.S @ v))
            assert num / np.linalg.norm(form.H @ v) <= 1e-10

    def test_rejects_bad_k(self):
        S = flat_assembler(fem.build_mesh(1, 10)).gram()
        with pytest.raises(ValueError):
            spectral.smallest_eigenpairs(S, S, 0)
        with pytest.raises(ValueError):
            spectral.smallest_eigenpairs(S, S, 100)

    def test_rejects_indefinite_gram(self):
        H = np.eye(3)
        S_bad = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(spectral.FactorizationError):
            spectral.smallest_eigenpairs(H, S_bad, 2)


class TestKernelEigenpairs:
    def test_near_kernel_accuracy(self):
        c = (2.3 * np.pi) ** 2
        mesh = fem.build_mesh(1, 500)
        asm = fem.Assembler(mesh, metric.euclidean(1), problem.linear_problem(-c))
        form = asm.h(1.0 / 4.6 + 1e-6)
        pairs = spectral.kernel_eigenpairs(form.H, form.S, 1)
        dense = spectral.smallest_eigenpairs(form.H, form.S, 1)
        assert pairs.values[0] == pytest.approx(dense.values[0], rel=1e-8)
        # relative residual ||H v - lambda S v|| / (||H||_inf ||v||)
        v, lam = pairs.vectors[:, 0], pairs.values[0]
        h_inf = abs(form.H).sum(axis=1).max()
        res = np.linalg.norm(form.H @ v - lam * (form.S @ v)) / (h_inf * np.linalg.norm(v))
        assert res <= 1e-12

    def test_multiplicity_two_subspace(self):
        mesh = fem.build_mesh(2, 14)
        asm = fem.Assembler(mesh, metric.euclidean(2), problem.linear_problem(-36.0))
        # near the first multiplicity-2 crossing j_{1,1}/6
        form = asm.h(0.6388)
        pairs = spectral.kernel_eigenpairs(form.H, form.S, 2)
        G = pairs.vectors.T @ (form.S @ pairs.vectors)
        assert np.allclose(G, np.eye(2), atol=1e-9)
        dense = spectral.smallest_eigenpairs(form.H, form.S, 8)
        near = np.sort(np.abs(dense.values))[:2]
        assert np.allclose(np.sort(np.abs(pairs.values)), near, rtol=1e-6)

    def test_deterministic(self):
        mesh = fem.build_mesh(1, 200)
        asm = fem.Assembler(mesh, metric.euclidean(1), problem.linear_problem(-30.0))
        form = asm.h(0.5)
        a = spectral.kernel_eigenpairs(form.H, form.S, 2)
        b = spectral.kernel_eigenpairs(form.H, form.S, 2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_raises_when_sweeps_run_out(self):
        # The convergence test compares two sweeps, so one sweep never passes it.
        mesh = fem.build_mesh(1, 200)
        form = fem.Assembler(mesh, metric.euclidean(1), problem.linear_problem(-30.0)).h(0.5)
        with pytest.raises(spectral.FactorizationError):
            spectral.kernel_eigenpairs(form.H, form.S, 1, max_iter=1)
