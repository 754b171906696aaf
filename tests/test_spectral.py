import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from smalescan import conjugate, fem, metric, problem, spectral

import reference


def random_symmetric_with_inertia(rng, n_neg, n_zero, n_pos, seed_scale=1.0):
    n = n_neg + n_zero + n_pos
    d = np.concatenate([
        -rng.uniform(0.5, 2.0, n_neg),
        np.zeros(n_zero),
        rng.uniform(0.5, 2.0, n_pos),
    ])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return seed_scale * (Q * d) @ Q.T


def rayleigh_quotients(H, S, V):
    """v^T H v / v^T S v of every column v of V."""
    return np.einsum("ij,ij->j", V, H @ V) / np.einsum("ij,ij->j", V, S @ V)


def flat_assembler(mesh):
    return fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(0.0))


class TestInertia:
    def test_diagonal_example(self):
        # An exactly zero pivot counts as nonnegative in the dense
        # reference; the factorization refuses the singular factor.  The
        # pattern of A lies outside the tridiagonal band, so the count
        # factors; a band is Sturm-counted (see TestSturmCount).
        A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]])  # -1, 0, 3
        assert reference.bunch_kaufman_inertia(A) == 1
        with pytest.raises(spectral.FactorizationError):
            spectral.inertia(A)

    def test_spd_stiffness(self):
        S = flat_assembler(fem.build_mesh(1, 50)).gram()
        assert spectral.inertia(S) == 0

    def test_1d_oscillator_morse_index(self):
        # eigenvalues (k pi / 2)^2 - (2.3 pi)^2 are negative iff k <= 4
        mesh = fem.build_mesh(1, 2000)
        H = fem.Assembler(mesh, metric.MetricModel(),
                          problem.ProblemSpec(-(2.3 * np.pi) ** 2)).h(1.0)
        assert spectral.inertia(H) == 4
        assert reference.bunch_kaufman_inertia(H.toarray()) == 4

    def test_congruence_invariance(self):
        rng = np.random.default_rng(1)
        A = random_symmetric_with_inertia(rng, 4, 0, 6)
        for _ in range(10):
            C = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
            assert spectral.inertia(C @ A @ C.T) == 4
            assert reference.bunch_kaufman_inertia(C @ A @ C.T) == 4

    def test_matches_dense_eigendecomposition(self):
        # Sylvester consistency on moderate random matrices
        rng = np.random.default_rng(2)
        for n in (40, 200, 500):
            A = rng.standard_normal((n, n))
            A = A + A.T
            expect = int((np.linalg.eigvalsh(A) < 0).sum())
            assert spectral.inertia(A) == expect
            assert reference.bunch_kaufman_inertia(A) == expect

    def test_sparse_matches_dense_across_radii(self):
        # sparse LDL^T against dense Bunch-Kaufman on every shipped geometry
        scenarios = [
            (fem.build_mesh(1, 300), metric.MetricModel(), -(2.3 * np.pi) ** 2),
            (fem.build_mesh(2, 7), metric.MetricModel(), -36.0),
            (fem.build_mesh(2, 7), metric.MetricModel(1.0), -36.0),
        ]
        for mesh, met, f in scenarios:
            asm = fem.Assembler(mesh, met, problem.ProblemSpec(f))
            for r in np.linspace(1e-3, 1.0, 41):
                H = asm.h(r)
                assert spectral.inertia(H) == reference.bunch_kaufman_inertia(H)

    def test_strict_mode_has_no_zero_band(self):
        A = np.diag([1e-14, -1e-14, 1.0])
        assert spectral.inertia(A) == 1
        assert reference.bunch_kaufman_inertia(A) == 1

    def test_rejects_nonsymmetric(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for H in (A, sp.csr_matrix(A)):
            with pytest.raises(ValueError):
                spectral.inertia(H)
        with pytest.raises(ValueError):
            reference.bunch_kaufman_inertia(A)

    def test_sparse_zero_diagonal_raises(self):
        # no diagonal pivot order exists: SuperLU pivots off the diagonal
        # and the count must be refused instead of misclassified.  The
        # swap of unknowns 0 and 2 lies outside the tridiagonal band.
        H = sp.csr_matrix(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(spectral.FactorizationError, match="zero diagonal pivot"):
            spectral.inertia(H)

    def test_sparse_pivot_growth_raises(self):
        H = sp.csr_matrix(np.array([[1e-14, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1e-14]]))
        with pytest.raises(spectral.FactorizationError, match="pivot growth"):
            spectral.inertia(H)

    def test_held_pattern_refuses_asymmetry_before_factoring(self, monkeypatch):
        # After one count the order and transpose map of H's pattern are
        # held; an asymmetric matrix on that pattern, or one whose entry
        # has no mirror in it, is refused without reaching SuperLU.
        asm = fem.Assembler(fem.build_mesh(2, 6), metric.MetricModel(),
                            problem.ProblemSpec(-36.0))
        H = asm.h(0.5)
        i, j = 3, int(H.indices[H.indptr[3]])  # first entry of column 3: (j, 3)
        assert j < i
        # The same values without the entry (3, j): its mirror (j, 3)
        # is stored as an explicit zero, so the matrix stays symmetric.
        C = H.tocoo(copy=True)
        drop = (C.row == i) & (C.col == j)
        C.data[(C.row == j) & (C.col == i)] = 0.0
        lone = sp.csc_matrix((C.data[~drop], (C.row[~drop], C.col[~drop])),
                             shape=H.shape)
        assert lone.nnz == H.nnz - 1
        monkeypatch.setattr(spectral, "_order", None)
        for M in (H, lone):
            n = spectral.inertia(M)
            slot = spectral._order

            def refuse(*args, **kwargs):
                raise AssertionError("factorized an asymmetric matrix")

            with monkeypatch.context() as m:
                m.setattr(spectral, "_splu", refuse)
                bad = M.copy()
                bad.data[bad.indptr[i]] += 1e-9 * abs(H).max()  # entry (j, 3)
                with pytest.raises(ValueError, match="symmetric"):
                    spectral.inertia(bad)
                assert spectral._order is slot  # the held pattern was read
            assert spectral.inertia(M) == n

    def test_csr_and_csc_forms_count_alike(self):
        asm = fem.Assembler(fem.build_mesh(1, 200), metric.MetricModel(),
                            problem.ProblemSpec(-(2.3 * np.pi) ** 2))
        for r in (0.1, 0.5, 0.9):
            H = asm.h(r)
            assert spectral.inertia(H.tocsr()) == spectral.inertia(H) == (
                reference.bunch_kaufman_inertia(H.toarray()))


def refuse(*args, **kwargs):
    raise AssertionError("unexpected call")


class TestSturmCount:
    """Bare counts of a tridiagonal pattern: LAPACK's Sturm count."""

    @pytest.fixture
    def no_factor(self, monkeypatch):
        monkeypatch.setattr(spectral.spla, "splu", refuse)

    def test_matches_dense_across_radii_without_a_factorization(self, no_factor):
        asm = fem.Assembler(fem.build_mesh(1, 300), metric.MetricModel(),
                            problem.ProblemSpec(-(2.3 * np.pi) ** 2))
        for r in np.linspace(1e-3, 1.0, 41):
            H = asm.h(r)
            expect = reference.bunch_kaufman_inertia(H)
            assert spectral.inertia(H) == spectral.inertia(H.tocsr()) == expect

    def test_former_lu_refusals_count_correctly(self, no_factor):
        # Inputs that the factorization refuses on a wider pattern (see
        # TestInertia): in the band the Sturm count has no pivot-growth
        # or pivot-order condition.
        for A in ([[0.0, 1.0], [1.0, 0.0]], [[1e-14, 1.0], [1.0, 1e-14]]):
            A = np.array(A)
            assert spectral.inertia(A) == reference.bunch_kaufman_inertia(A) == 1

    def test_zero_eigenvalue_counts_as_negative(self, no_factor):
        # LAPACK's pivmin rule: the dense reference counts it as
        # nonnegative.  The same count on first sight and from the slot.
        D = np.diag([-2.0, 0.0, 3.0])
        assert reference.bunch_kaufman_inertia(D) == 1
        assert spectral.inertia(D) == spectral.inertia(D) == 2

    @pytest.mark.parametrize("value, expect", [(-3.0, 1), (2.0, 0), (0.0, 0)])
    def test_one_unknown(self, no_factor, value, expect):
        assert spectral.inertia(sp.csc_matrix([[value]])) == expect

    def test_explicit_zero_off_diagonals(self, no_factor):
        d, e = np.array([-1.0, 2.0, -3.0, 4.0, 0.5]), np.array([0.0, 0.5, 0.0, 2.0])
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(5), np.arange(5))) <= 1)
        H = sp.csc_matrix((T[rows, cols], (rows, cols)), shape=(5, 5))
        assert H.nnz == 13  # the zeros are stored
        expect = int((np.linalg.eigvalsh(T) < 0.0).sum())
        assert spectral.inertia(H) == reference.bunch_kaufman_inertia(T) == expect == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_refused(self, no_factor, bad):
        H = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, bad, 1.0], [0.0, 1.0, 2.0]]))
        # inf - inf in the symmetry check warns on every route.
        with np.errstate(invalid="ignore"):
            with pytest.raises(spectral.FactorizationError, match="non-finite"):
                spectral.inertia(H)

    def test_asymmetric_band_is_refused_before_any_count(self, no_factor, monkeypatch):
        monkeypatch.setattr(spectral.la.lapack, "dstebz", refuse)
        H = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.5, 2.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            spectral.inertia(H)

    def test_kept_factor_still_factors(self):
        # A bisection probe keeps its factor: its count is the pivots'.
        asm = fem.Assembler(fem.build_mesh(1, 200), metric.MetricModel(),
                            problem.ProblemSpec(-30.0))
        H = asm.h(0.8)
        keep = [None]
        n = spectral.inertia(H, keep)
        assert isinstance(keep[0], spectral.Factor)
        assert n == int((keep[0].lu.U.diagonal() < 0.0).sum()) == spectral.inertia(H)

    @pytest.mark.parametrize("dim, per_point", [(1, 0), (2, 1)])
    def test_scan_factors_only_off_the_band(self, monkeypatch, dim, per_point):
        # A 1D scan from a held slot makes no SuperLU call; a 2D scan one
        # per grid point; two threads give the same counts.
        asm = TestFactorOrder.oscillator_or_disc(dim)
        grid = np.linspace(0.05, 1.0, 12)
        conjugate.scan(asm, grid[:1])  # holds the pattern's slot and order
        splu = spla.splu
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return splu(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "splu", counted)
        one = conjugate.scan(asm, grid)
        assert calls == ["NATURAL"] * (per_point * len(grid))
        two = conjugate.scan(asm, grid, threads=2)
        assert np.array_equal(one.n_neg, two.n_neg)
        assert one.n_neg[-1] > one.n_neg[0]


class TestFactorOrder:
    """``factor`` keeps the MMD order of the last sparsity pattern."""

    @staticmethod
    def oscillator_or_disc(dim):
        if dim == 1:
            return fem.Assembler(fem.build_mesh(1, 400), metric.MetricModel(),
                                 problem.ProblemSpec(-(2.3 * np.pi) ** 2))
        return fem.Assembler(fem.build_mesh(2, 12), metric.MetricModel(),
                             problem.ProblemSpec(-36.0))

    @staticmethod
    def mmd(H):
        return spla.splu(sp.csc_matrix(H), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reused_order_gives_the_mmd_fill_count_and_solves(self, dim, monkeypatch):
        asm = self.oscillator_or_disc(dim)
        r_star = reference.pencil_crossings(asm, 8, 1e-9)[0][0]
        monkeypatch.setattr(spectral, "_order", None)
        spectral.factor(asm.gram())
        slot = spectral._order
        b = np.random.default_rng(3).standard_normal(asm.gram().shape[0])
        for r in (0.3, 0.7, 1.0, r_star - 5e-8, r_star + 5e-8):
            H = asm.h(r)
            F, lu = spectral.factor(H), self.mmd(H)
            assert spectral._order is slot  # a hit: the order is not recomputed
            assert np.array_equal(np.argsort(lu.perm_c), slot.order[0])  # H's own MMD order
            assert F.lu.L.nnz + F.lu.U.nnz == lu.L.nnz + lu.U.nnz
            assert np.array_equal(F.lu.perm_c, np.arange(len(b)))
            assert spectral.inertia(H) == int((lu.U.diagonal() < 0.0).sum())
            x, y = F.solve(b), lu.solve(b)
            # Both solves are backward stable: each residual is rounding
            # relative to |H| |x|, even within 5e-8 of the crossing.
            for z in (x, y):
                res = np.abs(H @ z - b).max() / (abs(H).max() * np.abs(z).max())
                assert res <= 1e-13
            if abs(r - r_star) > 1e-3:
                assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()
        assert spectral.inertia(asm.h(r_star - 5e-8)) + 1 == spectral.inertia(
            asm.h(r_star + 5e-8))

    def test_a_new_pattern_replaces_the_slot(self, monkeypatch):
        monkeypatch.setattr(spectral, "_order", None)
        one, two = self.oscillator_or_disc(1), self.oscillator_or_disc(2)
        for asm in (one, two, one):
            H = sp.csc_matrix(asm.h(0.5))
            b = np.arange(H.shape[0], dtype=float)
            x = spectral.factor(H).solve(b)
            assert np.array_equal(spectral._order[0], H.indptr)
            assert np.array_equal(spectral._order[1], H.indices)
            assert np.abs(x - self.mmd(H).solve(b)).max() <= 1e-10 * np.abs(x).max()


class TestSmallestEigenpairs:
    def test_identity_pencil(self):
        S = flat_assembler(fem.build_mesh(1, 30)).gram()
        vals, _ = reference.smallest_eigenpairs(S, S, 3)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_1d_pencil_sign_pattern(self):
        # sign of lambda_k(r) matches (k pi / 2)^2 - c r^2
        c = 30.0
        mesh = fem.build_mesh(1, 400)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-c))
        for r in (0.3, 0.6, 0.95):
            vals, _ = reference.smallest_eigenpairs(asm.h(r), asm.gram(), 5)
            expect = np.sign([(k * np.pi / 2) ** 2 - c * r * r for k in range(1, 6)])
            assert np.array_equal(np.sign(vals), expect)

    def test_first_eigenvalue_decreasing_in_r(self):
        mesh = fem.build_mesh(1, 300)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-12.0))
        vals = []
        for r in np.linspace(0.05, 1.0, 15):
            vals.append(reference.smallest_eigenpairs(asm.h(r), asm.gram(), 1)[0][0])
        assert np.all(np.diff(vals) < 0.0)

    def test_s_orthonormal_and_residual(self):
        mesh = fem.build_mesh(2, 6)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-20.0))
        H, S = asm.h(0.8), asm.gram()
        vals, vecs = reference.smallest_eigenpairs(H, S, 4)
        G = vecs.T @ (S @ vecs)
        assert np.allclose(G, np.eye(4), atol=1e-10)
        for j, lam in enumerate(vals):
            v = vecs[:, j]
            num = np.linalg.norm(H @ v - lam * (S @ v))
            assert num / np.linalg.norm(H @ v) <= 1e-10

    def test_rejects_bad_k(self):
        S = flat_assembler(fem.build_mesh(1, 10)).gram()
        with pytest.raises(ValueError):
            reference.smallest_eigenpairs(S, S, 0)
        with pytest.raises(ValueError):
            reference.smallest_eigenpairs(S, S, 100)

    def test_rejects_indefinite_gram(self):
        H = np.eye(3)
        S_bad = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(spectral.FactorizationError):
            reference.smallest_eigenpairs(H, S_bad, 2)


class TestKernelEigenpairs:
    def test_near_kernel_accuracy(self):
        c = (2.3 * np.pi) ** 2
        mesh = fem.build_mesh(1, 500)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-c))
        H, S = asm.h(1.0 / 4.6 + 1e-6), asm.gram()
        v = spectral.kernel_eigenpairs(H, S, 1)[:, 0]
        lam = rayleigh_quotients(H, S, v[:, None])[0]
        dense, _ = reference.smallest_eigenpairs(H, S, 1)
        assert lam == pytest.approx(dense[0], rel=1e-8)
        # relative residual ||H v - lambda S v|| / (||H||_inf ||v||)
        h_inf = abs(H).sum(axis=1).max()
        res = np.linalg.norm(H @ v - lam * (S @ v)) / (h_inf * np.linalg.norm(v))
        assert res <= 1e-12

    def test_multiplicity_two_subspace(self):
        mesh = fem.build_mesh(2, 14)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-36.0))
        # near the first multiplicity-2 crossing j_{1,1}/6
        H, S = asm.h(0.6388), asm.gram()
        V = spectral.kernel_eigenpairs(H, S, 2)
        G = V.T @ (S @ V)
        assert np.allclose(G, np.eye(2), atol=1e-9)
        lams = rayleigh_quotients(H, S, V)
        assert np.all(np.diff(lams) >= 0.0)  # ascending columns
        dense, _ = reference.smallest_eigenpairs(H, S, 8)
        near = np.sort(np.abs(dense))[:2]
        assert np.allclose(np.sort(np.abs(lams)), near, rtol=1e-6)

    def test_deterministic(self):
        mesh = fem.build_mesh(1, 200)
        asm = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(-30.0))
        H, S = asm.h(0.5), asm.gram()
        a = spectral.kernel_eigenpairs(H, S, 2)
        b = spectral.kernel_eigenpairs(H, S, 2)
        assert np.array_equal(a, b)
        # Two distinct eigenvalues, returned in ascending order: those
        # of the dense pencil nearest zero.
        lams = rayleigh_quotients(H, S, a)
        assert lams[0] < lams[1]
        vals, _ = reference.smallest_eigenpairs(H, S, 6)
        near = np.sort(vals[np.argsort(np.abs(vals), kind="stable")[:2]])
        assert np.allclose(lams, near, rtol=1e-8)

    def test_raises_when_sweeps_run_out(self, monkeypatch):
        # ARPACK does not converge within one restart.
        asm = fem.Assembler(fem.build_mesh(1, 200), metric.MetricModel(),
                            problem.ProblemSpec(-30.0))
        monkeypatch.setattr(spectral, "KERNEL_MAX_SWEEPS", 1)
        with pytest.raises(spectral.FactorizationError):
            spectral.kernel_eigenpairs(asm.h(0.5), asm.gram(), 1)

    def test_refused_factor_is_raised_without_a_shifted_retry(self, monkeypatch):
        asm = fem.Assembler(fem.build_mesh(1, 200), metric.MetricModel(),
                            problem.ProblemSpec(-30.0))
        H, S = asm.h(0.5), asm.gram()
        calls = []

        def refused(A, **kwargs):
            calls.append(A)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spectral.spla, "splu", refused)
        with pytest.raises(spectral.FactorizationError, match="sparse factorization failed"):
            spectral.kernel_eigenpairs(H, S, 1)
        assert len(calls) == 1

    def test_curved_double_kernel_matches_dense_reference(self):
        # r = 0.64291269 is the first double crossing of the 10-ring unit
        # cap; the pair spans the same S-space as the dense eigenvectors
        # whose eigenvalues lie nearest zero.  The mesh's 60-degree
        # symmetry makes the pair exactly double, so its Rayleigh
        # quotients ascend to rounding (they differ by about 3e-16).
        asm = fem.Assembler(fem.build_mesh(2, 10), metric.MetricModel(1.0),
                            problem.ProblemSpec(-36.0))
        H, S = asm.h(0.64291269), asm.gram()
        V = spectral.kernel_eigenpairs(H, S, 2)
        assert np.allclose(V.T @ (S @ V), np.eye(2), atol=1e-10)
        assert np.all(np.diff(rayleigh_quotients(H, S, V)) >= -1e-14)
        vals, vecs = reference.smallest_eigenpairs(H, S, 12)
        W = vecs[:, np.argsort(np.abs(vals), kind="stable")[:2]]
        E = V - W @ (W.T @ (S @ V))  # the part of V outside span(W)
        assert np.sqrt(np.linalg.eigvalsh(E.T @ (S @ E)).max()) <= 1e-10

    def test_k_equal_to_n_is_solved_densely(self):
        asm = fem.Assembler(fem.build_mesh(1, 3), metric.MetricModel(),
                            problem.ProblemSpec(-30.0))
        H, S = asm.h(0.5), asm.gram()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = spectral.kernel_eigenpairs(H, S, 2)
        assert np.allclose(V.T @ (S @ V), np.eye(2), atol=1e-12)
        assert np.all(np.diff(rayleigh_quotients(H, S, V)) > 0.0)


# Minor faults of one 100-radius scan of a 12-ring flat disc, plain and
# inside ``_kept_heap``, in one process, after a short scan that makes
# the fill-reducing order and the kept stiffness.
FAULT_SCRIPT = """
import contextlib, json, resource
import numpy as np
from smalescan import conjugate, fem, metric, problem, spectral

asm = fem.Assembler(fem.build_mesh(2, 12), metric.MetricModel(), problem.ProblemSpec(-36.0))
grid = np.linspace(1e-3, 1.0, 100)
conjugate.scan(asm, grid[:3])
faults = {}
for name, block in (("plain", contextlib.nullcontext), ("kept", spectral._kept_heap)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with block():
        conjugate.scan(asm, grid)
    faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


class TestKeptHeap:
    def test_calls_on_entry_and_exit(self, fake_libc):
        with spectral._kept_heap():
            # M_MMAP_MAX = -4 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h.
            assert fake_libc.calls == [("mallopt", -4, 0), ("mallopt", -1, -1)]
        assert fake_libc.calls[2:] == [
            ("mallopt", -4, 65536), ("mallopt", -1, 32 << 20), ("malloc_trim", 0),
        ]

    @pytest.mark.parametrize("libc", ["no confstr", "no such name", "unset", "musl"])
    def test_other_libc_gets_no_call(self, fake_libc, monkeypatch, libc):
        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        if libc == "no confstr":
            monkeypatch.delattr(os, "confstr")
        else:
            reported = {"no such name": unknown_name, "unset": lambda name: None,
                        "musl": lambda name: "musl 1.2.4"}[libc]
            monkeypatch.setattr(os, "confstr", reported)
        with spectral._kept_heap():
            pass
        assert fake_libc.opened == 0 and fake_libc.calls == []

    def test_scan_faults_fall_inside_the_block(self):
        # Each count of the plain scan faults its freed factorization
        # memory in again; inside the block the heap keeps it.  A fresh
        # process, because any earlier block in this one has frozen
        # glibc's thresholds.
        if spectral._glibc() is None:
            pytest.skip("glibc only")
        proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        assert faults["kept"] < faults["plain"] / 10, faults
